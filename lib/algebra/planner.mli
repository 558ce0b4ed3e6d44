(** The unified cost-based planner.

    One pipeline over the two optimization layers the codebase grew
    separately:

    + {e distributed} rewriting — {!Optimizer.optimize} searches the
      closure of the equivalence rules (10)–(16) for the cheapest
      placement of work across peers;
    + {e site-local} query optimization — every query the chosen plan
      evaluates at a single peer (the [q] of each [Query_app], however
      deeply shipped through [send]s) is then rewritten by
      {!Axml_query.Optimize.optimize}: predicate simplification and
      selectivity-aware binding reordering, which change enumeration
      cost but never results.

    The result carries the final plan, the combined cost picture and a
    machine-readable explain record ({!explain_json}) — what
    [axmlctl explain] and the E15 benchmark print. *)

type result = {
  plan : Expr.t;  (** Final plan: best rewrite, queries optimized. *)
  cost : Cost.t;  (** Estimated cost of {!field:plan}. *)
  search : Optimizer.result;
      (** The distributed-search layer's outcome (initial cost, best
          rewritten plan before query optimization, trace, explored
          and expansion counts). *)
  queries_optimized : int;
      (** Embedded queries changed by the site-local pass. *)
  equal_calls : int;
      (** {!Expr.equal} invocations the search paid for: the visited
          set's cost, one per same-fingerprint bucket member compared. *)
  strategy : string;  (** {!Optimizer.strategy_name} of the search. *)
}

val plan :
  env:Cost.env ->
  ctx:Expr.Peer_id.t ->
  ?objective:(Cost.t -> float) ->
  ?peers:Expr.Peer_id.t list ->
  ?stats:Axml_query.Selectivity.Stats.t list ->
  Optimizer.strategy ->
  Expr.t ->
  result
(** Run both layers.  [stats], when given, feeds the selectivity
    oracle of the binding-reordering pass.  One call reads each
    document's size and statistics through [env] at most once
    ({!Cost.memoize}). *)

val optimize_queries :
  ?stats:Axml_query.Selectivity.Stats.t list -> Expr.t -> Expr.t * int
(** The site-local layer alone: rewrite every embedded query with
    {!Axml_query.Optimize.optimize}; returns the rewritten expression
    and how many queries changed. *)

val pp_result : Format.formatter -> result -> unit
(** Human-oriented explain: costs, trace, plan. *)

val explain_json : result -> string
(** The same record as a self-contained JSON object: initial/best/final
    cost (bytes, messages, latency), explored/expansion counts,
    [equal_calls], [queries_optimized], the rule trace, and the final
    plan's textual form. *)
