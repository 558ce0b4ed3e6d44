(** The AXML system: peers, network, dispatch, and the state Σ.

    "We call state of an AXML system over peers p1…pn, and denote by
    Σ, all documents and services on p1…pn" (Section 3.3).  A
    {!t} bundles the simulated network with one {!Peer.t} per topology
    member and implements the message protocol of {!module:Message}.

    Expression evaluation itself lives in {!module:Exec}; the system
    calls back into it through a hook to break the module cycle. *)

module Peer_id = Axml_net.Peer_id
module Names = Axml_doc.Names

type t

type emit = Axml_xml.Forest.t -> final:bool -> unit
(** Result-stream consumer: called per batch; [final] marks the last
    batch of the stream. *)

(** {1 Construction} *)

type transport =
  | Raw  (** Messages ride the simulator as-is; a lost message is lost. *)
  | Reliable
      (** One sequenced window per (src,dst) direction ({!Transport}):
          effectively exactly-once, in-order delivery over a lossy
          network. *)

(** Which wire encoding the simulator charges for each transmission. *)
type wire =
  | Xml
      (** The original model: XML serialization size plus a fixed
          envelope ({!Message.bytes}). *)
  | Binary
      (** Exact encoded frame length of the binary codec
          ({!Codec.frame_bytes}), computed from cached per-tree blob
          lengths without materializing frames. *)
  | Binary_strict
      (** A codec test harness mode: charges exactly what [Binary]
          charges, and every physical transmission is additionally
          encoded and decoded ({!Codec.roundtrip}), so the receiver
          consumes what the decoder rebuilt from a real frame. *)

val create :
  ?response_delay_ms:float ->
  ?cpu_ms_per_kb:float ->
  ?transport:transport ->
  ?wire:wire ->
  ?flush_ms:float ->
  ?ack_delay_ms:float ->
  Axml_net.Topology.t ->
  t
(** One peer is created per topology member.  [response_delay_ms]
    spaces the successive responses of a continuous service (default
    1.0); [cpu_ms_per_kb] prices local query evaluation (default
    0.01).  [transport] defaults to [Raw], all a fault-free run
    needs; {!Placement.enable} requires [Reliable], and all four
    benchmark workloads run it.  [flush_ms] and [ack_delay_ms] (defaults
    0.0) set the Reliable window ({!Transport.create}); both are
    ignored under [Raw].

    [wire] (default [Xml]) selects the byte-accounting model — and,
    for [Binary_strict], routes every transmission through the binary
    codec.  The wire never changes what is delivered, only how it is
    charged/carried: same-seed runs reach the same Σ fingerprints
    under every wire.
    @raise Invalid_argument if [flush_ms] or [ack_delay_ms] is
    negative. *)

val transport : t -> transport
val sim : t -> Message.t Axml_net.Sim.t
val peer : t -> Peer_id.t -> Peer.t
(** @raise Not_found for unknown peers. *)

val peers : t -> Peer.t list
val gen_of : t -> Peer_id.t -> Axml_xml.Node_id.Gen.t

(** {1 Populating Σ} *)

val add_document : t -> Peer_id.t -> name:string -> Axml_xml.Tree.t -> unit
val load_document : t -> Peer_id.t -> name:string -> xml:string -> unit
(** Parse and add.
    @raise Axml_xml.Parser.Parse_error on bad XML. *)

val add_service : t -> Peer_id.t -> Axml_doc.Service.t -> unit

val register_doc_class :
  t -> class_name:string -> Names.Doc_ref.t -> unit
(** Register a document-class member in {e every} peer's catalog
    (global knowledge; use {!Peer.t}'s catalog directly for asymmetric
    knowledge). *)

val register_service_class :
  t -> class_name:string -> Names.Service_ref.t -> unit

val unregister_doc_class :
  t -> class_name:string -> Names.Doc_ref.t -> unit
(** Retire a member from every peer's catalog (placement's
    retire-the-source step; no-op where absent). *)

(** {1 Continuations and messaging} *)

val fresh_key : t -> int

val set_cont :
  ?expected_finals:int -> t -> int -> (Axml_xml.Forest.t -> final:bool -> unit) -> unit
(** Register a stream continuation.  It is dropped automatically after
    [expected_finals] final batches (default 1); the consumer sees
    [final = true] only on the last of them — how a driver joins
    acknowledgements from several destinations. *)

val send : t -> src:Peer_id.t -> dst:Peer_id.t -> Message.payload -> unit
(** Wrap the payload in a {!Message.t} envelope carrying the ambient
    correlation id ({!Axml_obs.Trace.current_corr}) and enqueue it on
    the simulator, through {!Transport.send} under [Reliable].  Each
    transmission is counted in {!stats}; while {!Axml_obs.Trace} keeps
    the correlation, its [xfer] span carries the {!Message.pp}
    rendering as its note. *)

val route :
  ?notify:Peer_id.t * int ->
  t ->
  src:Peer_id.t ->
  Message.reply_dest ->
  Axml_xml.Forest.t ->
  final:bool ->
  unit
(** Deliver one stream batch to a destination (continuation, node
    insertion, or document installation).  On a final batch to a
    side-effecting destination, [notify] is carried along and pinged
    by the destination {e after} applying the batch. *)

val consume_cpu : t -> peer:Peer_id.t -> bytes:int -> unit
(** Charge query-evaluation time at a peer. *)

(** {1 Document-level AXML (Section 2.2)} *)

val activate_call :
  t -> owner:Peer_id.t -> doc:Names.Doc_name.t -> node:Axml_xml.Node_id.t -> bool
(** Activate the service call at the [sc] node [node] of a stored
    document: ship parameters to the provider, route responses to the
    forward list (default: siblings of the [sc] node).  [false] if the
    node is not a well-formed call. *)

val activate_all : t -> ?peer:Peer_id.t -> unit -> int
(** Activate every call in every (or one peer's) stored document;
    returns the number of calls activated. *)

(** {1 Faults and failover} *)

val inject_faults : t -> Axml_net.Fault.plan -> unit
(** See {!Axml_net.Sim.inject}. *)

val crash : t -> Peer_id.t -> unit
(** Crash a peer now: its volatile state — store, registry, catalog,
    watchers, in-flight transport buffers — is discarded and a fresh
    empty {!Peer.t} (with the {e durable} id generator carried over)
    takes its place; messages addressed to it are dropped until
    {!restart}.  The failover [save] hook (see {!set_failover}) runs
    first, modeling continuously persisted durable state. *)

val restart : t -> Peer_id.t -> unit
(** Bring a crashed peer back; the failover [load] hook reloads its
    checkpoint (without one the peer restarts empty). *)

val set_failover :
  t -> save:(Peer_id.t -> unit) -> load:(Peer_id.t -> unit) -> unit
(** Install the checkpoint hooks used by {!crash} / {!restart}.
    {!Failover.enable} wires these to {!Persist} checkpoints. *)

(** {1 Semantic result cache}

    DESIGN.md §18.  Off by default; {!enable_qcache} gives every peer
    a {!Axml_query.Qcache} keyed by planner expression fingerprints,
    probed and filled by {!Exec}.  The cache is volatile: a {!crash}
    replaces it with a fresh empty one, and failover checkpoints never
    contain it — restart reloads re-stamp documents
    ({!Axml_doc.Store.version_of}), so pre-crash entries could not
    revalidate even if they survived.  Its counts are not volatile:
    {!qcache_stats} keeps what a crashed cache counted. *)

val enable_qcache : ?capacity:int -> t -> unit
(** Attach a semantic cache (default capacity 256 entries) to every
    peer, now and after any future crash-recreation. *)

val qcache_stats : t -> Axml_query.Qcache.stats
(** Sum over all peers' caches, including the caches crashes
    discarded. *)

val doc_version : t -> peer:Peer_id.t -> doc:string -> int option
(** Current version stamp of [doc] at [peer]; [None] if peer or
    document is absent.  A live read modeling the invalidation
    protocol's knowledge (the convention {!cost_env} also uses). *)

val availability : t -> from:Peer_id.t -> Peer_id.t -> bool
(** The membership filter generic resolution uses: [true] iff the
    peer is [from] itself or currently reachable from it
    ({!Axml_net.Sim.reachable}). *)

type reliability_counters = Transport.counters = private {
  mutable retransmits : int;
  mutable dup_suppressed : int;
  mutable abandoned : int;
  mutable acks_sent : int;
  mutable batches_sent : int;
  mutable batched_messages : int;
  mutable piggybacked_acks : int;
  mutable delayed_acks : int;
}
(** The Reliable transport's always-on counts ({!Transport.counters}). *)

val reliability_counters : t -> reliability_counters
(** The sum of {!reliability_by_peer}. *)

val reliability_by_peer : t -> (Peer_id.t * reliability_counters) list
(** Each peer's {!Transport.counters}, sorted by peer; peers that never
    sent or received a sequenced message are absent. *)

val rto : t -> src:Peer_id.t -> dst:Peer_id.t -> float option
(** {!Transport.rto} of [src]'s window toward [dst]. *)

(** {1 Running and observing} *)

val run : ?max_events:int -> t -> Axml_net.Sim.outcome * int
(** Drive the simulator until quiescence or the [max_events] guard;
    the outcome says which (see {!Axml_net.Sim.run}) — check it, a
    [`Budget_exhausted] run left deliverable messages unprocessed. *)

val now_ms : t -> float
val stats : t -> Axml_net.Stats.snapshot
val reset_stats : t -> unit

val fingerprint : t -> string
(** Canonical digest of Σ: every peer's documents (by name, with
    {!Axml_doc.Equivalence.fingerprint}) and service names.  Resources
    whose name starts with ["_tmp"] — the auxiliary documents and
    services materialized by rewrites (rules (10), (13)) — are
    excluded, so that plan equivalence can be checked as fingerprint
    equality. *)

val content_fingerprint : t -> string
(** Location-{e independent} digest of Σ: the sorted, deduplicated
    set of (name, content-digest) pairs across all peers.  Identical
    replicas collapse to one entry, so live migration leaves it
    unchanged — whereas a lost, duplicated or diverged append changes
    it.  The placement suites compare runs with this; {!fingerprint}
    stays the location-{e sensitive} digest. *)

val find_document : t -> Peer_id.t -> string -> Axml_doc.Document.t option

val cost_env : t -> Axml_algebra.Cost.env
(** A {!Axml_algebra.Cost.env} whose oracles read the live system:
    document sizes from the peers' stores, declarative-service queries
    from their registries, topology and CPU pricing from the
    simulator.  The entry point of optimize-before-evaluate — see
    {!Exec.run_optimized}.  Its lookups are {!Axml_doc.Store.peek}s:
    planning records no [doc/<n>/reads] demand. *)

(** {1 Exec hook} *)

val set_eval_hook :
  (t -> ctx:Peer_id.t -> Axml_algebra.Expr.t -> emit:emit -> unit) -> unit
(** Installed by {!module:Exec} at load time; not for end users. *)

val response_delay_ms : t -> float
val cpu_ms_per_kb : t -> float
