(** The Reliable transport: one sequenced window per (src, dst)
    direction — sequence numbers, cumulative acks, go-back-N
    retransmission on an RTT-adaptive, backed-off timer and in-order
    dedup at the receiver: effectively exactly-once, in-order delivery
    over a lossy network (DESIGN.md §12–13).

    Each peer has one {!endpoint}: its counters and a connection per
    peer it exchanges sequenced messages with.  A connection's cursors
    are durable (WAL-backed, they survive a {!crash}); its window —
    queue, unacked messages, timers, RTT estimator, reorder buffer,
    owed ack — is volatile. *)

module Peer_id = Axml_net.Peer_id

type t
(** What a system's endpoints share. *)

val create :
  Message.t Axml_net.Sim.t ->
  flush_ms:float ->
  ack_delay_ms:float ->
  send:(src:Peer_id.t -> dst:Peer_id.t -> Message.t -> float) ->
  deliver:(Peer_id.t -> src:Peer_id.t -> Message.t -> unit) ->
  t
(** [send] puts a frame on the wire and returns its expected arrival
    ({!Axml_net.Sim.send}); [deliver p ~src m] hands [m] up at [p].

    Sequenced messages to one destination are held for up to
    [flush_ms] and coalesced into one {!Message.Batch} frame carrying
    a piggybacked cumulative ack; at [flush_ms = 0] each ships inside
    {!send}, bare unless it has an ack to carry.  Standalone acks are
    deferred by [ack_delay_ms] and dropped when reverse traffic
    piggybacks them first; at [ack_delay_ms = 0] a receiver acks each
    in-order message on arrival, before delivering it.

    The retry timer counts from the latest expected arrival of the
    window's frames, plus [ack_delay_ms], plus the direction's RTO
    ({!rto}) doubled per retry and never over 1280 ms; so once faults
    go quiet every loss is re-shipped within the sender's busy wait +
    transfer + [ack_delay_ms] + 1280 ms.  30 retries abandon a window,
    so a dead destination cannot keep a run alive forever. *)

type endpoint

val endpoint : t -> Peer_id.t -> endpoint

val send : endpoint -> dst:Peer_id.t -> Message.payload -> unit
(** Wrap the payload in a {!Message.t} carrying the ambient correlation
    and operator ids.  Acks and loopbacks go straight to the wire;
    anything else is sequenced and joins its direction's window. *)

val on_message : endpoint -> src:Peer_id.t -> Message.t -> unit
(** The receive stage: acks advance the windows, frames are unpacked,
    sequenced messages are delivered in order, once, or buffered, and
    unsequenced ones are delivered at once. *)

val crash : endpoint -> unit
(** Cancel the retry and ack timers of every window the endpoint holds
    and replace each with an empty one.  Cursors, counters and other
    endpoints' windows toward this one stay. *)

type counters = private {
  mutable retransmits : int;
  mutable dup_suppressed : int;
  mutable abandoned : int;
      (** sends given up after 30 retransmissions of their window *)
  mutable acks_sent : int;
  mutable batches_sent : int;  (** [Message.Batch] frames shipped *)
  mutable batched_messages : int;
      (** logical messages those frames carried, re-ships included *)
  mutable piggybacked_acks : int;
      (** standalone acks a reverse-direction batch carried instead *)
  mutable delayed_acks : int;
      (** standalone acks fired after the deferral; also in [acks_sent] *)
}
(** What an endpoint's windows sent and the duplicates it suppressed,
    read-only.  A bare message is not a batch: at [flush_ms =
    ack_delay_ms = 0] the batch counts move only when a timeout
    re-ships two or more messages together. *)

val counters : endpoint -> counters option
(** A copy, which later traffic does not move; [None] until the
    endpoint first sends or receives a sequenced message.  Crashes do
    not reset the counts. *)

val sum : counters list -> counters

val rto : endpoint -> dst:Peer_id.t -> float option
(** The timeout of the window toward [dst] before backoff; [None] if
    the endpoint never exchanged a sequenced message with [dst].  40 ms
    until the first RTT sample (doubled by each timeout before it, up
    to 160 ms), then [max 40 (srtt + 4·rttvar)] (RFC 6298, Karn's
    rule).  A crash resets it to 40 ms. *)
