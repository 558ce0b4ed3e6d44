(** Per-peer metrics registry.

    Named counters, gauges and log-scale histograms keyed by
    [(peer, subsystem, name)].  The registry the runtime instruments is
    {!default}; scenarios that want isolation can {!create} their own.

    Collection is {b off by default}: every mutator returns immediately
    on a disabled registry, and hot paths guard themselves with
    {!is_on} so that the disabled path is one boolean load with no
    allocation.

    Metric names recorded by the runtime (see DESIGN.md §10) — only
    what no always-on store counts; messages, bytes and drops live in
    [Axml_net.Stats], transport counters in
    [Axml_peer.System.reliability_counters], cache counts in
    [Axml_query.Qcache.stats]:
    - [sim/events], [sim/queue_depth] (gauge, high-water mark);
    - [peer/cpu_ms] (histogram per peer), [peer/activations],
      [peer/routed_batches];
    - [stream/batches] (histogram: batches per response stream);
    - [plan/expansions], [plan/explored], [plan/rewrite_steps],
      [plan/equal_calls], [plan/queries_optimized],
      [plan/search_ms] (histogram);
    - [query/compile_ms], [query/index_builds], [query/index_hits],
      [query/fallback];
    - [fault/crashes], [fault/restarts];
    - [profiler/est_error_ratio]. *)

(** {1 Histogram geometry}

    Shared with {!Timeseries} so per-window distributions merge with
    cumulative ones: bucket [i] covers [(2^(i-5), 2^(i-4)]], the last
    bucket overflows to infinity. *)

val hist_buckets : int
val bucket_bound : int -> float
val bucket_index : float -> int

type t

val create : unit -> t
val default : t
(** The registry the runtime's instrumentation writes to. *)

val set_enabled : t -> bool -> unit
val is_on : t -> bool
val reset : t -> unit
(** Drop every metric; the enabled flag is untouched. *)

(** {1 Mutators}

    [peer] defaults to [""] — a system-wide (per-subsystem) metric. *)

val incr : t -> ?peer:string -> ?by:int -> subsystem:string -> string -> unit
val gauge_set : t -> ?peer:string -> subsystem:string -> string -> float -> unit

val gauge_max : t -> ?peer:string -> subsystem:string -> string -> float -> unit
(** Keep the maximum of the observed values (high-water mark). *)

val observe : t -> ?peer:string -> subsystem:string -> string -> float -> unit
(** Add one observation to a log-scale histogram (powers-of-two
    buckets). *)

(** {1 Pre-resolved handles}

    A handle caches the mutable cell behind one (peer, subsystem,
    name) key, turning a hot-loop update into a generation check plus
    an in-place mutation — no tuple allocation, no hashing.  Handles
    are cheap to create and resolve lazily: while the registry is
    disabled they create no table entry and an update allocates
    nothing (the E16 invariant), and after {!reset} they transparently
    re-resolve.  A handle over a key already bound to a different
    metric kind updates nothing, like the keyed mutators. *)

type counter_handle
type gauge_handle
type hist_handle

val counter_handle :
  t -> ?peer:string -> subsystem:string -> string -> counter_handle

val gauge_handle : t -> ?peer:string -> subsystem:string -> string -> gauge_handle
val hist_handle : t -> ?peer:string -> subsystem:string -> string -> hist_handle

val incr_h : counter_handle -> by:int -> unit
val gauge_set_h : gauge_handle -> float -> unit
val gauge_max_h : gauge_handle -> float -> unit
val observe_h : hist_handle -> float -> unit

(** {1 Reading} *)

type sample =
  | Count of int
  | Value of { value : float; max_value : float }
  | Dist of { count : int; sum : float; buckets : (float * int) list }
      (** [buckets]: (inclusive upper bound, observations) for
          non-empty buckets only; the bound of the overflow bucket is
          [infinity]. *)

type entry = { peer : string; subsystem : string; name : string; sample : sample }

val snapshot : t -> entry list
(** Deterministic: sorted by (peer, subsystem, name). *)

val counter_value : t -> ?peer:string -> subsystem:string -> string -> int
(** [0] when absent or not a counter. *)

val total : t -> subsystem:string -> string -> float
(** Sum of a metric across all peers: counters contribute their count,
    gauges their current value, histograms their sum. *)

val pp_table : Format.formatter -> t -> unit
(** Render the snapshot as an aligned per-peer table. *)
