(** Compiled queries: the index-aware evaluation fast path.

    {!Eval} is the reference interpreter: assoc-list environments,
    and a full subtree traversal per descendant step.  This module
    compiles an {!Ast.t} once — variables become array slots, the
    conjunct schedule is precomputed, numeric literals are
    pre-rendered — and evaluates descendant steps against a
    structural index ({!Axml_xml.Index}) when one is available, so
    the cost of a step scales with its matches instead of the
    document.

    A binding whose source is an input ([$k]) does not depend on
    earlier bindings, so its values are selected once per evaluation,
    when first reached, not once per earlier tuple.  When such a
    binding's conjuncts include an equality between an operand of
    that binding alone and one of earlier bindings alone (a join,
    [attr($a, "item") = attr($i, "id")]), its values are hashed on
    their operand by {!Eval.Eq_key} — the classes of
    {!Eval.compare_values}' equality — and each earlier tuple probes
    the table instead of scanning.  Every scheduled conjunct is
    re-checked on the matches, which are emitted in document order,
    as the nested loop would.  The tuple count stays the nested
    loop's: each probe counts every value of the hashed binding.

    Results, enumeration order and tuple counts are exactly those of
    {!Eval.eval} (property-tested); the interpreter stays as the
    testing oracle.

    Metrics (on {!Axml_obs.Metrics.default}, subsystem [query]):
    [index_hits] (descendant steps served from postings; an input
    binding's selection counts once per evaluation),
    [index_builds], [fallback] (steps that had to traverse),
    [compile_ms] (histogram, compile-cache misses only). *)

val set_index_threshold : int -> unit
(** Minimum node count ({!Axml_xml.Forest.size}) before an input
    forest is worth indexing on the fly; default 128.  Set to [0] to
    force indexing (the property suites do). *)

val index_threshold : unit -> int

type t
(** A compiled query. *)

val compile : Ast.t -> t
(** Compile without caching.
    @raise Invalid_argument if the query is ill-formed. *)

val compiled : Ast.t -> t
(** Memoized {!compile} — "once per service": repeated activations of
    the same query hit the cache. *)

val eval :
  gen:Axml_xml.Node_id.Gen.t ->
  Ast.t ->
  Axml_xml.Forest.t list ->
  Axml_xml.Forest.t
(** Drop-in for {!Eval.eval}: same checks, same exceptions, same
    results.  Compiles (cached) and indexes large inputs on the
    fly. *)

val eval_counted :
  gen:Axml_xml.Node_id.Gen.t ->
  Ast.t ->
  Axml_xml.Forest.t list ->
  Axml_xml.Forest.t * int
(** Like {!Eval.eval_counted}: also returns the number of binding
    extensions enumerated (identical to the interpreter's count — a
    hashed join counts what the nested loop would enumerate). *)

val eval_over :
  gen:Axml_xml.Node_id.Gen.t ->
  Ast.t ->
  (Axml_xml.Forest.t * Axml_xml.Index.t option) list ->
  Axml_xml.Forest.t
(** Evaluate with caller-provided prebuilt indexes (a document
    store's, or a continuous query's maintained input indexes).
    [None] inputs are indexed on the fly under the usual threshold;
    unusable indexes fall back to traversal. *)

val index_input : Ast.t -> Axml_xml.Forest.t -> Axml_xml.Index.t option
(** The index an evaluation of the query would build on the fly for
    this input forest, for a caller that keeps it across evaluations
    ({!Incremental}): [None] when the query has no descendant step or
    the forest is under the threshold.  Counted in [index_builds] like
    every on-the-fly build.  The index may be unusable; {!eval_over}
    then falls back to traversal. *)
