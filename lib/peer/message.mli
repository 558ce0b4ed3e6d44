(** Wire messages of the peer runtime.

    Everything peers exchange while evaluating expressions and running
    AXML documents: response streams, expression delegations
    (definition (5) and rule (14)), service invocations (steps 1–3 of
    call activation), node/document installations (definitions (4) and
    (8)) and query shipping.

    Every payload forest is a plain, materialized
    {!Axml_xml.Forest.t}, as in the paper: the binary decoder
    ({!Codec.decode}) rebuilds it eagerly.

    Byte sizes under the XML wire are computed from the XML
    serializations — the simulator charges what the wire would carry.
    Under the binary wire ({!Codec}), the charge is the actual encoded
    frame length. *)

module Peer_id = Axml_net.Peer_id
module Names = Axml_doc.Names

(** {1 Messages} *)

(** Where a response stream should be delivered. *)
type reply_dest =
  | Cont of { peer : Peer_id.t; key : int }
      (** A continuation registered at a peer (expression results). *)
  | Node of Names.Node_ref.t
      (** Append under an identified node (forward lists). *)
  | Install of { peer : Peer_id.t; name : string }
      (** Install as a new document there. *)

type payload =
  | Stream of { key : int; forest : Axml_xml.Forest.t; final : bool }
      (** One batch of a response stream. *)
  | Eval_request of {
      expr : Axml_algebra.Expr.t;
      replies : reply_dest list;
          (** Every result batch goes to each destination. *)
      ack : (Peer_id.t * int) option;
          (** Zero-byte completion signal, for drivers that only need
              to know the side effects have been emitted. *)
    }
  | Invoke of {
      service : Names.Service_name.t;
      params : Axml_xml.Forest.t list;
      replies : reply_dest list;
    }
  | Insert of {
      node : Axml_xml.Node_id.t;
      forest : Axml_xml.Forest.t;
      notify : (Peer_id.t * int) option;
          (** Destination-side acknowledgement: after applying the
              insert, ping this continuation.  Carried by the last
              batch of a stream so that "done" is only signalled once
              the side effects are really in place (large data travels
              slower than a bare ack would). *)
    }
  | Install_doc of {
      name : string;
      forest : Axml_xml.Forest.t;
      notify : (Peer_id.t * int) option;
    }
  | Migrate_doc of {
      name : string;
      forest : Axml_xml.Forest.t;
      notify : (Peer_id.t * int) option;
    }
      (** Placement handoff (DESIGN.md §17): install-or-replace a
          replica of [name] at the destination {e preserving} the
          shipped node ids, so the replica answers queries with the
          same identifiers as the source.  Unlike {!Install_doc} the
          name is never uniquified and an existing replica is
          replaced, making re-shipment idempotent. *)
  | Retract_doc of { name : string; notify : (Peer_id.t * int) option }
      (** Placement cleanup: drop the replica of [name] at the
          destination (idempotent — retracting an absent document is
          a no-op). *)
  | Deploy of {
      prefix : string;
      query : Axml_query.Ast.t;
      reply : reply_dest;
    }
      (** Definition (8): install the query as a new service; the
          reply stream carries the fresh service name as text. *)
  | Query_shipped of { key : int; query : Axml_query.Ast.t }
      (** Transfer of a query value between peers; the receiving
          continuation captures what to do with it. *)
  | Ack of { seq : int }
      (** Reliable-transport acknowledgement of the sender's sequence
          number (see {!System}); acks themselves are unsequenced.
          Under batching, acknowledgements are {e cumulative}: [seq]
          acknowledges every sequence number up to and including it. *)
  | Batch of { items : t list; ack : int }
      (** A coalesced frame of sequenced messages for one (src, dst)
          pair, in ascending sequence order, plus the sender's {e
          cumulative} acknowledgement of the reverse direction
          ([0] = nothing to acknowledge).  Every item is carried
          whole, its own node ids included: sharing a transfer is the
          plan's decision (rule (13), [Axml_algebra.Expr.Shared]),
          not the transport's. *)

and t = { payload : payload; corr : int; seq : int; op : int }
(** The wire envelope: a payload plus the correlation id of the
    logical computation that caused the send ([0] = uncorrelated).
    Minted by {!Axml_obs.Trace.fresh_corr} at the computation's entry
    point ({!Exec.run_to_quiescence}, {!System.activate_call}) and
    re-established as the ambient correlation when the message is
    dispatched — which is how one computation's spans connect across
    peers and hops.

    [seq] is the reliable transport's per-(src,dst) sequence number;
    [0] means unsequenced (raw transport, loopback, acks).

    [op] is the profiler's plan-operator id ([-1] = unattributed),
    carried and re-established exactly like the correlation id so
    remote work is folded back onto the operator that caused it.
    Like the correlation id, both ride inside the fixed envelope
    budget. *)

val make : ?corr:int -> ?seq:int -> ?op:int -> payload -> t

val bytes : payload -> int
(** XML-wire serialized size estimate charged to the link (the
    correlation id rides inside the fixed envelope budget).  A [Batch]
    charges one envelope for the frame plus a small per-item header —
    coalescing n messages saves [(n-1) * (envelope - item_header)]
    bytes of fixed cost.  Only the XML wire uses this model; the
    binary wire charges {!Codec.frame_bytes}. *)

val envelope : int
(** Fixed per-message framing cost in bytes (XML wire model). *)

val item_header : int
(** Per-item framing cost inside a [Batch] frame (XML wire model). *)

val batch : ack:int -> t list -> payload
(** Build a [Batch] frame from sequenced messages (given in send
    order) with the cumulative reverse-direction acknowledgement
    [ack]: one item per message, in that order. *)

val batch_size : payload -> int
(** Number of logical messages a payload carries: the item count of a
    [Batch], [1] otherwise. *)

val reply_peer : reply_dest -> Peer_id.t

val tag : payload -> string
(** Short kind label (["stream"], ["invoke"], …) for span names and
    metric keys. *)

val pp : Format.formatter -> payload -> unit
