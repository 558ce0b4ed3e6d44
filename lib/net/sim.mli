(** Discrete-event network simulator.

    Peers exchange messages over a {!Topology.t}; a virtual clock
    advances from delivery to delivery.  Handlers run at delivery time
    and may send further messages, schedule timers or consume local
    CPU time.  The simulator is deterministic: equal-time events fire
    in scheduling order.  An attached {!Fault} plan ({!inject}) makes
    the network hostile — drops, duplicates, jitter, outages,
    partitions, crashes — while keeping runs bit-reproducible per
    seed.

    The payload type is a parameter — the simulator knows nothing
    about AXML; {!module:Axml_peer} instantiates it with algebra
    messages. *)

type 'a t

type outcome = [ `Quiescent | `Budget_exhausted ]
(** How a {!run} ended: the queue drained (or nothing is left before
    the time horizon), or the [max_events] divergence guard fired with
    deliverable events still pending — indistinguishable outcomes
    before this type existed, which silently truncated runs. *)

val create : Topology.t -> 'a t
val topology : 'a t -> Topology.t
val now : 'a t -> float
(** Current virtual time in milliseconds. *)

val stats : 'a t -> Stats.t

val set_handler : 'a t -> Peer_id.t -> (src:Peer_id.t -> 'a -> unit) -> unit
(** Install the message handler of a peer, replacing any previous one.
    Messages delivered to a peer without a handler are counted as
    drops (see {!Stats.snapshot}[.drops]), not raised. *)

val send :
  ?note:string ->
  ?msgs:int ->
  'a t ->
  src:Peer_id.t ->
  dst:Peer_id.t ->
  bytes:int ->
  'a ->
  float
(** Enqueue a message.  It departs no earlier than the sender's busy
    horizon and arrives after the link's transfer time (plus any
    fault-injected jitter; an injected fault plan may also drop or
    duplicate it).  Returns the expected arrival: departure plus
    transfer time, without jitter — what the sender can know.  Each
    transmission is counted once, in {!stats}, and — while
    {!Axml_obs.Trace} keeps its correlation — recorded as
    an [xfer] span (see {!xfers}) labelled with [note]; [msgs]
    (default [1]) is the number of logical messages the frame carries
    — a batching transport passes the item count so
    {!Stats.snapshot}[.payload_messages] stays a physical-independent
    measure of traffic.
    @raise Not_found if either peer is outside the topology. *)

(** {2 Reading transmissions back}

    The message-by-message account of a run is its [xfer] spans: one
    per kept transmission (retransmissions, fault-injected duplicates
    and loopbacks included), on the sender's track. *)

type xfer = {
  src : Peer_id.t;
  dst : Peer_id.t;
  depart_ms : float;  (** The span's start. *)
  arrive_ms : float;
      (** The span's end: departure plus transfer time and jitter. *)
  bytes : int;  (** What {!Stats} charged; loopbacks carry theirs too. *)
  note : string;  (** The sender's label, [""] when it gave none. *)
}

val xfers : Axml_obs.Trace.event list -> xfer list
(** The transmissions among [events], in recording order. *)

val pp_xfer : Format.formatter -> xfer -> unit

val after : 'a t -> peer:Peer_id.t -> delay_ms:float -> (unit -> unit) -> unit
(** Schedule a local callback on [peer] at [now + delay_ms].  Timers
    model volatile state: one firing while its peer is crashed is
    silently discarded. *)

val at : 'a t -> time:float -> (unit -> unit) -> unit
(** Schedule a peer-independent control callback at absolute sim time
    [time] (clamped to [now]).  Control events always run — they are
    not tied to a peer's liveness and do not count toward the run's
    completion time — which makes them the right vehicle for
    system-level controllers (e.g. the placement tick) that must keep
    observing across crashes. *)

val after_cancellable :
  'a t -> peer:Peer_id.t -> delay_ms:float -> (unit -> unit) -> unit -> unit
(** Like {!after}, but returns a cancel thunk.  A cancelled timer is
    inert: it neither runs nor extends the run's completion time —
    retransmission timers pre-empted by their ack must not stretch
    [completion_ms] past the last real event. *)

val consume_cpu : 'a t -> peer:Peer_id.t -> ms:float -> unit
(** Model local computation: pushes the peer's busy horizon forward so
    that subsequent sends from this peer depart later.  The duration
    is scaled by the peer's CPU factor. *)

val set_cpu_factor : 'a t -> Peer_id.t -> float -> unit
(** Heterogeneous peers: a factor of 2.0 makes computation twice as
    slow there, 0.5 twice as fast.  Default 1.0.
    @raise Invalid_argument on non-positive factors. *)

val cpu_factor : 'a t -> Peer_id.t -> float

val busy_until : 'a t -> Peer_id.t -> float

(** {2 Faults} *)

val inject : 'a t -> Fault.plan -> unit
(** Attach a fault plan: probabilistic per-link faults take effect on
    subsequent sends, and the plan's crash/restart events are
    scheduled as control events (which always run and do not count
    toward completion time). *)

val crash : 'a t -> Peer_id.t -> unit
(** Take a peer down now: its pending timers die, messages addressed
    to it are dropped, and the [on_crash] hook runs (the runtime uses
    it to discard the peer's volatile state).  Idempotent. *)

val restart : 'a t -> Peer_id.t -> unit
(** Bring a crashed peer back (empty); the [on_restart] hook runs
    (the runtime uses it to reload a checkpoint).  No-op if the peer
    is not crashed. *)

val is_crashed : 'a t -> Peer_id.t -> bool

val set_crash_hooks :
  'a t -> on_crash:(Peer_id.t -> unit) -> on_restart:(Peer_id.t -> unit) -> unit

val reachable : 'a t -> src:Peer_id.t -> dst:Peer_id.t -> bool
(** Best-effort liveness oracle at current virtual time: [dst] is not
    crashed and no scheduled outage/partition currently cuts the
    link.  This is the membership filter generic ([d\@any]/[s\@any])
    resolution uses to degrade gracefully. *)

val run : ?until_ms:float -> ?max_events:int -> 'a t -> outcome * int
(** Process events in time order until the queue drains (quiescence),
    the clock passes [until_ms], or [max_events] deliveries have been
    processed (a divergence guard for continuous services;
    default 1_000_000).  Returns how the run ended together with the
    number of events processed: [`Budget_exhausted] means the guard
    cut the run with deliverable events still pending — callers should
    surface it rather than mistake the truncation for quiescence.

    A delivery to a crashed or handler-less peer is a routable fault:
    it is counted against the destination ({!Stats.drops_by_peer}, a
    trace instant) and the run continues.

    When {!Axml_obs.Trace} is enabled, every delivery and timer is
    recorded as a virtual-time span on the destination peer's track;
    when {!Axml_obs.Metrics} is enabled, event counts and the queue's
    high-water depth are recorded.  Both disabled paths cost one
    boolean load per event. *)

val pending : 'a t -> int
(** Number of queued events. *)
