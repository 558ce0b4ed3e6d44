(** Adaptive replica placement (DESIGN.md §17).

    A per-system controller that, on a configurable sim-clock tick,
    reads the windowed {!Axml_obs.Timeseries} load signals — per-
    document read rates, per-peer transmit load — and migrates hot
    documents onto underloaded peers live: snapshot, ship over the
    Reliable transport ({!Message.payload.Migrate_doc}, id-
    preserving), forward streaming appends that land mid-handoff, and
    register the new replica in its generic class on acknowledgement.

    Decisions are a pure function ({!plan_tick}) of a {!signals}
    snapshot plus a seeded {!Axml_net.Rng}: same-seed runs replay the
    same migration schedule byte-for-byte. *)

module Peer_id = Axml_net.Peer_id
module Names = Axml_doc.Names

type config = {
  tick_ms : float;  (** Controller period (default 100). *)
  windows : int;
      (** How many complete Timeseries windows each signal reads
          (default 3). *)
  hot_rate : float;
      (** Reads/second above which a document class is a migration
          candidate (default 50). *)
  max_replicas : int;
      (** Replica budget per class, the source included (default 3). *)
  migrations_per_tick : int;  (** Handoff concurrency bound (default 1). *)
  handoff_timeout_ms : float;
      (** A ship unacknowledged for this long aborts (default 1000). *)
  retire_source : bool;
      (** Retire the source member from the {e read} class after a
          commit.  The source keeps the master copy and its
          forwarding link — writes still flow through it (default
          false). *)
  seed : int;  (** Tie-breaking RNG seed (default 1). *)
  eligible : (Peer_id.t -> bool) option;
      (** Restrict migration targets (e.g. to storage peers); [None]
          admits every peer. *)
}

val default_config : config

type phase = Shipping | Committed | Aborted

type migration = {
  m_id : int;
  m_class : string;
  m_doc : string;
  m_src : Peer_id.t;
  m_dst : Peer_id.t;
  m_started_ms : float;
  mutable m_phase : phase;
  mutable m_committed_ms : float;  (** [nan] until committed. *)
  mutable m_cleaned : bool;
      (** An aborted handoff is cleaned once its forwarding link is
          dropped and the retraction sent. *)
}

type t

val enable : ?cfg:config -> System.t -> t
(** Attach a controller to the system and schedule its first tick.
    Ticks ride the simulator's Control queue, so they observe crashes
    without being killed by them, and stop rescheduling once the
    simulation is idle and no handoff is in flight (the run can
    quiesce).
    @raise Invalid_argument unless the system uses the [Reliable]
    transport (a lost ship or acknowledgement must be retransmitted,
    not lost), or on non-positive knobs. *)

val stop : t -> unit
(** Stop scheduling ticks; in-flight handoffs are left to their
    acknowledgements. *)

(** {1 Signals and planning} *)

type signals = {
  sig_classes : (string * Names.Doc_ref.t list) list;
      (** Union of the peers' document-class catalogs, in
          deterministic (peer, registration) order.  The controller
          keeps this view across ticks and rebuilds it only when some
          peer's catalog changed — a different catalog (a crash
          replaces it) or a new {!Axml_doc.Generic.version} — so
          between changes successive snapshots share it physically. *)
  sig_doc_rate : string -> float;  (** Reads/second, recent windows. *)
  sig_peer_load : Peer_id.t -> float;
      (** Transmit load; [infinity] = no signal. *)
  sig_live : Peer_id.t -> bool;
  sig_holds : Peer_id.t -> string -> bool;
  sig_peers : Peer_id.t list;
  sig_busy : string -> bool;
      (** Class already has an unfinished handoff. *)
}

type decision = {
  d_class : string;
  d_doc : string;
  d_src : Peer_id.t;
  d_dst : Peer_id.t;
}

val signals : t -> signals
(** The snapshot a tick plans from: the class view (rebuilt first if
    any catalog changed since it was built), and the live rate, load,
    liveness, holding and busy readers.  Exposed for direct testing,
    as {!plan_tick} is. *)

val plan_tick : config -> Axml_net.Rng.t -> signals -> decision list
(** One tick's migration decisions: hot classes (rate >= [hot_rate],
    under the replica budget, not busy) ranked by rate, each paired
    with the least-loaded live eligible non-holder; exact load ties
    are broken by the RNG.  Pure — exposed for direct testing. *)

(** {1 Load-steered pick policy} *)

val load_gauge : ?windows:int -> System.t -> Peer_id.t -> float option
(** The windowed per-peer transmit-load signal, [None] when there is
    no signal (telemetry disabled, no complete window yet, or a
    non-finite reading) — never NaN. *)

val steered_policy : ?windows:int -> seed:int -> System.t -> Axml_doc.Generic.policy
(** A {!Axml_doc.Generic.policy.Load_steered} fed by {!load_gauge}. *)

val doc_read_rate : windows:int -> System.t -> string -> float

(** {1 Observing} *)

type stats = {
  s_ticks : int;
  s_started : int;
  s_committed : int;
  s_aborted : int;
}

val stats : t -> stats

val schedule : t -> migration list
(** Every migration ever started, oldest first. *)

val schedule_fingerprint : t -> string
(** Digest of the full migration schedule (ids, classes, endpoints,
    start/commit times, phases) — the determinism suite's replay
    witness. *)

val pp_schedule : Format.formatter -> t -> unit
