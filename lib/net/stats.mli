(** Transfer statistics.

    The quantities the paper's optimizations trade in: messages sent,
    bytes shipped (total and per directed link), and the virtual time
    at which the system went quiescent.  This is the one store of
    those counts: the per-peer figures are read from [per_link] and
    {!drops_by_peer}, and a message-by-message account is the [xfer]
    spans {!Axml_obs.Trace} records (see {!Sim.xfers}). *)

type t

type snapshot = {
  messages : int;  (** Physical frames on the wire. *)
  payload_messages : int;
      (** Logical messages carried: a batched frame (see
          {!Axml_peer.Message.Batch}) counts once in [messages] but
          its item count here.  Equal to [messages] when no transport
          batches. *)
  bytes : int;
  local_messages : int;  (** Loopback deliveries, not counted in [bytes]. *)
  drops : int;
      (** Messages lost to injected faults: dropped in flight by a
          lossy/cut link, or discarded on arrival at a crashed (or
          handler-less) peer.  Not counted in [messages]/[bytes] when
          dropped at send time.  The sum of {!drops_by_peer}. *)
  completion_ms : float;  (** Time of the last processed event. *)
  per_link : ((Peer_id.t * Peer_id.t) * (int * int)) list;
      (** (src, dst) -> (messages, bytes), remote links only. *)
}

val create : unit -> t

val record_send :
  ?msgs:int -> t -> src:Peer_id.t -> dst:Peer_id.t -> bytes:int -> unit
(** [msgs] (default [1]) is the number of logical messages the frame
    carries; it only feeds [payload_messages]. *)

val record_drop : t -> peer:Peer_id.t -> unit
(** Count a lost message against [peer]: the sender for a link drop,
    the destination for an arrival at a crashed or handler-less
    peer. *)

val drops_by_peer : t -> (Peer_id.t * int) list
(** Drops per peer, sorted by peer; peers with none are absent. *)

val record_time : t -> float -> unit
val snapshot : t -> snapshot
val reset : t -> unit
val pp_snapshot : Format.formatter -> snapshot -> unit
