(** Plan optimizer.

    Searches the space of equivalent expressions generated by
    {!module:Rewrite} for a plan with minimal estimated {!module:Cost},
    cheapest-first: the best unexpanded plan is expanded next, on a
    priority queue bounded by an expansion budget.  Plans that stop
    improving for a few steps are not re-enqueued, so cost-neutral
    plateaus cannot starve the search.  E15 shows it reaching the
    exhaustive optimum on every fixture; the test suite keeps an
    exhaustive closure as its optimality oracle.

    The search deduplicates plans through a fingerprint-bucketed
    visited set ({!Expr.fingerprint}): the full structural
    {!Expr.equal} runs only on hash collisions. *)

type strategy =
  | Best_first of { max_expansions : int }
      (** Expand at most [max_expansions] plans, always the cheapest
          unexpanded one first. *)

type step = { rule : string; cost : Cost.t }

type result = {
  plan : Expr.t;  (** Best plan found. *)
  cost : Cost.t;  (** Its estimated cost. *)
  initial_cost : Cost.t;
  explored : int;  (** Plans examined. *)
  expansions : int;  (** Plans whose rewrites were generated. *)
  trace : step list;  (** Rules on the path from input to best plan. *)
}

val strategy_name : strategy -> string
(** Short human/machine-readable tag, e.g. ["best-first(expansions=64)"]. *)

val rewrites : peers:Expr.Peer_id.t list -> Expr.t -> Rewrite.rewrite list
(** One expansion step: {!Rewrite.everywhere} with auxiliary names
    (rules (10), (13)) derived from the expanded plan's fingerprint.
    The same rewrite path therefore yields the same plan in any search
    built on it — plans are reproducible across runs, and the tests'
    exhaustive oracle rebuilds the plans {!optimize} finds. *)

val optimize :
  env:Cost.env ->
  ctx:Expr.Peer_id.t ->
  ?objective:(Cost.t -> float) ->
  ?peers:Expr.Peer_id.t list ->
  strategy ->
  Expr.t ->
  result
(** [optimize ~env ~ctx strategy e] searches from [e], driven from
    peer [ctx], expanding plans with {!rewrites}.  [objective] defaults
    to {!Cost.weighted}; [peers] defaults to the topology's peer list
    (the candidate delegates and relays).  The candidates are priced
    against {!Cost.memoize}[ env], made afresh for each call: each
    document is read once per call, and the next call sees what
    changed in between. *)

val pp_result : Format.formatter -> result -> unit
