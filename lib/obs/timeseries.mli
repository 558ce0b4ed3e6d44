(** Windowed telemetry: sim-clock-aligned ring aggregates.

    Where {!Metrics} keeps one cumulative cell per key for a whole
    run, a timeseries keeps the recent past: each key owns a fixed
    ring of windows, each covering [window_ms] of the driving clock
    (virtual sim time in the runtime) and aggregating
    count/sum/min/max.  The pull API ({!read_window}, {!rate},
    {!quantile}) answers "what happened to this document / peer over
    the last N windows" — the observed-load signal the placement
    controller and the load-steered pick policy consume.

    A series is recorded only at the granularity some reader uses.
    Keys wired into the runtime, each with its reader:
    - [doc/<name>/reads] — per-document read load (recorded by
      [Axml_doc.Store]; read by the placement controller);
    - [peer/<p>/tx] — per-peer transmitted bytes (recorded by
      [Axml_net.Sim]; read by the placement controller, the
      load-steered pick policy and [axmlctl top]);
    - [peer/<p>/latency_ms] — per-peer modelled link latency of each
      transmission (recorded by [Axml_net.Sim], with buckets; read by
      [axmlctl top]'s p95/p99);
    - [peer/<p>/inflight] — sequenced messages in flight on the
      sending connection when a new one joins it, so a window's max is
      the peak over the peer's outgoing connections (recorded by the
      Reliable transport; read by [axmlctl top]).

    Buckets: a series carries a log-scale histogram in the {!Metrics}
    bucket geometry only when the handle that creates it asks for one
    ([handle ~hist:true]) — only [peer/<p>/latency_ms] does, since it
    is the one key anything calls {!quantile} on.

    Determinism: windows are keyed by the virtual clock; {!snapshot}
    sorts keys; same-seed runs produce byte-identical snapshots.
    Collection is {b off by default}; the disabled path is one boolean
    load and allocates nothing (E16/E21 invariant), and an enabled
    record allocates nothing either (the [telemetry] suite checks
    both shapes of series). *)

type t

val create : ?window_ms:float -> ?ring:int -> unit -> t
(** Defaults: 100 ms windows, 64-slot ring (6.4 s of history). *)

val default : t
val set_enabled : t -> bool -> unit
val is_on : t -> bool

val reset : t -> unit
(** Drop every series; outstanding handles re-resolve lazily. *)

val window_ms : t -> float
val ring_size : t -> int

val set_window : t -> float -> unit
(** Change the window width (e.g. [axmlctl top --interval-ms]).
    Epochs index the window grid, so this drops every live series —
    equivalent to {!reset} — when the width actually changes.
    @raise Invalid_argument on a non-positive width. *)

val set_clock : t -> (unit -> float) -> unit
(** Install the driving clock ([Sim.now] in the runtime — virtual
    milliseconds, so recordings stay deterministic).  Default: a
    constant 0.  Windows recorded under the previous clock mean
    nothing under the new one, so this drops every live series, like
    {!reset}: each simulator starts from empty telemetry. *)

val now : t -> float

val epoch_of : t -> float -> int
(** The window index containing a timestamp. *)

val window_start : t -> int -> float

(** {1 Recording} *)

type handle
(** A pre-resolved series reference: a hot-loop record is a generation
    check plus in-place mutation — no hashing, no allocation.  Held
    over a disabled registry it creates no table entry. *)

val handle : ?hist:bool -> t -> string -> handle
(** [hist] (default [false]): the series keeps per-window histogram
    buckets, so {!quantile} can read it.  The handle that first
    records to a key fixes its shape. *)

val record : handle -> float -> unit
(** Record at the clock's current time. *)

val record_at : handle -> ts:float -> float -> unit

(** {1 Reading} *)

type agg = {
  w_epoch : int;
  w_start_ms : float;
  w_count : int;
  w_sum : float;
  w_min : float;  (** [infinity] when the window is empty. *)
  w_max : float;
}

val read_window : t -> string -> epoch:int -> agg option
(** The aggregate for one window, if it still lives in the ring. *)

val rate : t -> string -> now:float -> windows:int -> float
(** Events per second over the [windows] complete windows preceding
    the one containing [now] (the still-filling current window is
    excluded). *)

val quantile : t -> string -> now:float -> windows:int -> q:float -> float
(** Merged-histogram quantile over the last [windows] windows up to
    and including [now]'s: the inclusive upper bound of the bucket
    holding the q-th observation; [0.] with no data or an unknown key.
    @raise Invalid_argument on a series recorded without buckets. *)

val keys : t -> string list
(** Sorted. *)

val snapshot : t -> (string * agg list) list
(** Every live window of every key — keys sorted, windows ascending;
    byte-identical across same-seed runs. *)

val fingerprint : t -> string
(** Digest of {!snapshot}, for replay-determinism checks. *)
