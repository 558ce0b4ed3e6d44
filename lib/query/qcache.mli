(** Per-peer semantic result cache (cross-plan rule (13)).

    DXQ-style query networks let inner nodes cache and combine
    results; rules (12)/(13) are the algebraic version of the same
    idea, but within a single plan.  This cache extends the sharing
    across plans: an entry maps a planner expression fingerprint to
    the forest the expression evaluated to, so a later plan — from
    the same peer, possibly a different query — whose subplan matches
    a live entry reads the materialized result instead of
    re-evaluating (and, for remote subplans, instead of re-shipping).

    The module is parametric in the expression type so it can live
    below {!Axml_algebra} in the dependency order: callers supply the
    structural [equal] and the {!fingerprint} summary (mirroring
    [Expr.Fingerprint.t]).

    {2 Keying and collision hardening}

    Entries are bucketed by fingerprint hash.  A probe first matches
    the full fingerprint (hash, size, depth), then verifies structural
    [equal] before serving — a same-fingerprint, structurally distinct
    expression is counted under [collisions] and never aliases the
    entry.

    {2 Invalidation}

    Every entry is pinned to the doc-version vector it was computed
    against: one [(peer, doc, version)] triple per document the
    expression reads (versions are the global monotonic stamps of
    {!Axml_doc.Store}, never reused — a crash-restart reload gets
    fresh stamps, so checkpoint-restored documents can never
    revalidate a pre-crash entry).  A probe revalidates each pin
    through the [current] callback; any mismatch (or vanished
    document) drops the entry — stale results are dropped, never
    served.  Mutations on the owning peer's own store additionally
    invalidate eagerly through {!invalidate_dep} (wired from the
    store's mutation hook), keeping the cache small without waiting
    for a probe. *)

(** Mirror of [Axml_algebra.Expr.Fingerprint.t] (the dependency order
    forbids referencing it directly). *)
type fingerprint = { hash : int; size : int; depth : int }

type 'e t

val create : ?capacity:int -> equal:('e -> 'e -> bool) -> unit -> 'e t
(** [capacity] bounds live entries (default 256); beyond it the
    least-recently-probed entry is evicted. *)

val find :
  'e t ->
  fp:fingerprint ->
  expr:'e ->
  current:(peer:string -> doc:string -> int option) ->
  Axml_xml.Forest.t option
(** Probe for a live entry matching [expr].  [current] reports the
    present version stamp of a document (None if absent); every pin of
    a candidate entry must match exactly or the entry is dropped
    ([stale_drops]) and the probe misses.  The returned forest is the
    stored value — callers must [Forest.copy ~gen] before emitting it
    so node identifiers stay fresh. *)

val install :
  'e t ->
  fp:fingerprint ->
  expr:'e ->
  deps:(string * string * int) array ->
  forest:Axml_xml.Forest.t ->
  unit
(** Install (or refresh) the entry for [expr].  [deps] is the pinned
    [(peer, doc, version)] vector captured {e before} evaluation began
    and revalidated unchanged at completion — the caller's
    responsibility; installing against versions read after evaluation
    would pin a torn snapshot. *)

val invalidate_dep : 'e t -> peer:string -> doc:string -> unit
(** Drop every entry pinned to [(peer, doc)] — the eager path, driven
    by the owning store's mutation hook. *)

val record_hit : 'e t -> unit
(** Count a hit that was served outside {!find}'s accounting — the
    plan-rewrite probe runs with [find] counters suppressed (the
    evaluator would otherwise double-count the same subplan), then
    records its hits here. *)

val probe :
  'e t ->
  fp:fingerprint ->
  expr:'e ->
  current:(peer:string -> doc:string -> int option) ->
  Axml_xml.Forest.t option
(** {!find} without hit/miss accounting (stale drops and collisions
    still count — they are real events).  For plan-rewrite probes; see
    {!record_hit}. *)

val clear : 'e t -> unit
val length : 'e t -> int

type stats = {
  hits : int;
  misses : int;
  collisions : int;  (** Same fingerprint, [equal] said no. *)
  stale_drops : int;  (** Entries dropped on probe-time revalidation. *)
  invalidations : int;  (** Entries dropped by {!invalidate_dep}. *)
  installs : int;
  evictions : int;
}

val stats : 'e t -> stats
(** The cache's counts so far — their only record: no metric mirrors
    them, and a system sums them across its peers
    ({!Axml_peer.System.qcache_stats}). *)

val add_stats : stats -> stats -> stats
val zero_stats : stats
val pp_stats : Format.formatter -> stats -> unit
