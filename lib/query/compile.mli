(** Compiled queries: the index-aware evaluation fast path.

    {!Eval} is the reference interpreter: assoc-list environments,
    and a full subtree traversal per descendant step.  This module
    compiles an {!Ast.t} once — variables become array slots, the
    conjunct schedule is precomputed, numeric literals are
    pre-rendered — and evaluates descendant steps against a
    structural index ({!Axml_xml.Index}) when one is available, so
    the cost of a step scales with its matches instead of the
    document.

    An index is built on the fly only for an input that a descendant
    step would walk more than once in one evaluation: an input some
    [Var]-sourced binding or some [where] predicate reaches with a
    descendant step (it runs once per earlier tuple), or one whose
    input binding's path has a second descendant step ([$0//a//b]
    over nested [a]s).  An input binding with a single descendant
    step ([$0//auction], [$0/site//item]) is selected once per
    evaluation, over disjoint subtrees: that traversal is one walk of
    the input, where a build would walk it and also allocate an entry
    per element.

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
    [index_hits] (descendant steps served from postings, one per node
    stepped from: an input binding's selection counts once per tree
    of the input), [index_builds], [fallback] (one per input whose
    index was built or passed but is not {!Axml_xml.Index.usable},
    so its steps are walked instead; a traversal the rule chooses is
    not a fallback), [compile_ms] (histogram, compile-cache misses
    only). *)

val set_index_threshold : int -> unit
(** Minimum node count ({!Axml_xml.Forest.size}) before an input
    forest is worth indexing; default 128.  Set to [0] to index every
    input the rule above selects, whatever its size (the property
    suites do); inputs the rule leaves to traversal stay unindexed —
    to serve those from postings, pass prebuilt indexes to
    {!eval_over}. *)

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
    results.  Compiles (cached) and indexes on the fly the inputs
    the rule above selects. *)

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
    [None] inputs are indexed on the fly under the usual rule;
    unusable indexes fall back to traversal. *)

val index_input :
  Ast.t ->
  input:int ->
  read_before:bool ->
  Axml_xml.Forest.t ->
  Axml_xml.Index.t option
(** An index of input [input] for a caller that keeps it across
    evaluations and extends it as the input grows ({!Incremental}).
    With [read_before = false] it is the index an evaluation would
    build on the fly; once an earlier evaluation has read the input,
    any descendant step reading it is worth serving from a kept index.
    [None] when neither holds or the forest is under the threshold.
    Counted in [index_builds] like every on-the-fly build.  The index
    may be unusable; {!eval_over} then falls back to traversal. *)
