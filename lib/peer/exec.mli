(** Expression evaluation — definitions (1)–(9) of Section 3.2.

    [eval sys ~ctx e ~emit] starts the evaluation of e\@ctx.  Work is
    scheduled on the system's simulator; call {!System.run} to drive
    it.  [emit] fires at [ctx] for every result batch of the
    expression's stream ("a stream is a flow of XML trees which
    accumulate", Section 3.2); the [final] flag closes the stream.

    How the definitions map here:
    - (1)/(2): local data and local query application evaluate in
      place; continuous semantics comes from
      {!Axml_query.Incremental} — each incoming argument batch
      produces a delta batch;
    - (3)/(4): [send] evaluates at the site of its operand and moves
      the copy; side-effecting sends yield ∅;
    - (5): a remote operand turns into an [Eval_request] delegation to
      its home peer, which streams the result back;
    - (6): sc-rooted trees ship parameters to the provider, whose
      responses flow to the forward list (or back to the caller);
    - (7): a query applied away from its home is shipped to the
      application site (charged on the link);
    - (8): send(p2, q) deploys q as a fresh service at p2;
    - (9): generic documents and services resolve through the
      evaluating peer's catalog and pick policy. *)

val eval :
  System.t ->
  ctx:Axml_net.Peer_id.t ->
  Axml_algebra.Expr.t ->
  emit:System.emit ->
  unit

type outcome = {
  results : Axml_xml.Forest.t;  (** Concatenated batches, arrival order. *)
  finished : bool;  (** Whether the stream closed. *)
  stats : Axml_net.Stats.snapshot;  (** Network activity of the run. *)
  elapsed_ms : float;
  termination : Axml_net.Sim.outcome;
      (** [`Budget_exhausted] means the event guard cut the run short:
          [results]/[stats] describe a truncated computation. *)
  events : int;  (** Simulator events processed. *)
}

val run_to_quiescence :
  ?reset_stats:bool ->
  ?max_events:int ->
  System.t ->
  ctx:Axml_net.Peer_id.t ->
  Axml_algebra.Expr.t ->
  outcome
(** Evaluate, drive the simulator until no messages remain, and
    collect everything the expression emitted.  [reset_stats]
    (default [true]) zeroes the transfer counters first so the
    snapshot describes just this evaluation.

    When {!Axml_obs.Trace} is enabled, the run mints one correlation
    id, records an ["execute"] span at [ctx], and every message the
    computation causes carries the id — so its spans can be followed
    across peers in the exported trace. *)

type profiled = {
  outcome : outcome;
  report : Profiler.report;
      (** Per-operator estimate-vs-observed table; see {!Profiler}. *)
}

val run_profiled :
  ?reset_stats:bool ->
  ?max_events:int ->
  System.t ->
  ctx:Axml_net.Peer_id.t ->
  Axml_algebra.Expr.t ->
  profiled
(** EXPLAIN ANALYZE: evaluate the expression with tracing forced on
    (sampling disabled for the run, both settings restored afterwards)
    and the ambient operator id rooted at [0], then fold the recorded
    spans back onto the plan's operators.  The report pairs each
    operator's observed exclusive sim time, CPU, bytes, messages and
    index hits with the planner's {!Axml_algebra.Cost} estimate, and
    feeds each operator's estimate-error ratio into the
    [profiler/est_error_ratio] histogram of {!Axml_obs.Metrics}. *)

val run_optimized :
  ?reset_stats:bool ->
  ?max_events:int ->
  ?strategy:Axml_algebra.Optimizer.strategy ->
  ?objective:(Axml_algebra.Cost.t -> float) ->
  ?stats:Axml_query.Selectivity.Stats.t list ->
  System.t ->
  ctx:Axml_net.Peer_id.t ->
  Axml_algebra.Expr.t ->
  Axml_algebra.Planner.result * outcome
(** Optimize-before-evaluate: run the unified planner against the
    live system's own cost oracles ({!System.cost_env}), then execute
    the chosen plan under the simulator.  [strategy] defaults to
    [Best_first { max_expansions = 32 }].  Returns the planner's
    explainable result alongside the measured outcome, so scenarios
    can compare estimated against observed cost. *)
