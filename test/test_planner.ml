(* The unified planner: fingerprint soundness, best-first against an
   exhaustive optimality oracle, reproducibility, and the planner's
   two-layer (rewrite search + per-site query optimization)
   pipeline. *)

open Axml
open Helpers
module Expr = Algebra.Expr
module Optimizer = Algebra.Optimizer
module Planner = Algebra.Planner

let p1 = peer "p1"
let p2 = peer "p2"
let p3 = peer "p3"
let all_peers = [ p1; p2; p3 ]
let topo = mesh ~latency:10.0 ~bandwidth:100.0 [ "p1"; "p2"; "p3" ]

(* Large documents make delegation/pushing clearly profitable, so the
   search has something to find. *)
let env = Algebra.Cost.default_env ~doc_bytes:(fun _ -> 60_000) topo
let sel_query = Workload.Xml_gen.selection_query ()

let join_query =
  query "query(2) for $a in $0, $b in $1 return <pair>{$a}{$b}</pair>"

let fixtures =
  [
    ("select", Expr.query_at sel_query ~at:p1 ~args:[ Expr.doc "cat" ~at:"p2" ]);
    ( "self-join",
      Expr.query_at join_query ~at:p1
        ~args:[ Expr.doc "cat" ~at:"p2"; Expr.doc "cat" ~at:"p2" ] );
    ( "join-2-peers",
      Expr.query_at join_query ~at:p1
        ~args:[ Expr.doc "cat" ~at:"p2"; Expr.doc "cat" ~at:"p3" ] );
  ]

let run strategy plan = Optimizer.optimize ~env ~ctx:p1 strategy plan
let weight (r : Optimizer.result) = Algebra.Cost.weighted r.cost

(* --- the exhaustive oracle --------------------------------------- *)

(* Breadth-first closure of the rewrite relation to [depth] levels,
   deduplicated by a linear scan with structural Expr.equal: optimal
   within the bound, exponential in it.  Expanding with
   Optimizer.rewrites makes it rebuild the plans best-first finds,
   auxiliary names included.  Returns the first cheapest plan found
   and its cost. *)
let exhaustive ~env ~ctx ~depth plan =
  let peers = Net.Topology.peers env.Algebra.Cost.topology in
  let cost e = Algebra.Cost.of_expr env ~ctx e in
  let objective = Algebra.Cost.weighted in
  let seen = ref [ plan ] in
  let best = ref (plan, cost plan) in
  let frontier = ref [ plan ] in
  for _ = 1 to depth do
    let next = ref [] in
    List.iter
      (fun e ->
        List.iter
          (fun (r : Algebra.Rewrite.rewrite) ->
            if not (List.exists (Expr.equal r.result) !seen) then begin
              seen := r.result :: !seen;
              let c = cost r.result in
              if objective c < objective (snd !best) then best := (r.result, c);
              next := r.result :: !next
            end)
          (Optimizer.rewrites ~peers e))
      !frontier;
    frontier := !next
  done;
  !best

let optimum plan = exhaustive ~env ~ctx:p1 ~depth:2 plan

(* --- fingerprint soundness -------------------------------------- *)

(* Two structurally equal expressions must have equal fingerprints,
   even when their embedded trees carry different node identifiers
   (Expr.equal compares forests canonically). *)
let test_fingerprint_node_id_blind () =
  let forest ns =
    let rng = Workload.Rng.create ~seed:7 in
    [
      Workload.Xml_gen.catalog
        ~gen:(Xml.Node_id.Gen.create ~namespace:ns)
        ~rng ~items:12 ~selectivity:0.25 ();
    ]
  in
  let e ns = Expr.Data_at { forest = forest ns; at = p1 } in
  let a = e "nsA" and b = e "nsB" in
  Alcotest.(check bool) "expressions equal" true (Expr.equal a b);
  Alcotest.(check bool) "fingerprints equal" true
    (Expr.Fingerprint.equal (Expr.fingerprint a) (Expr.fingerprint b))

(* Over random plans and all their rewrites: Expr.equal a b implies
   Fingerprint.equal (the visited table's correctness condition).
   Reuses the rules-preservation plan generator. *)
let fingerprint_soundness seed =
  let rng = Workload.Rng.create ~seed in
  let plan = Test_rules_random.random_plan rng in
  let n = ref 0 in
  let fresh () =
    incr n;
    Printf.sprintf "_tmp_fp%d" !n
  in
  let pool =
    plan
    :: List.map
         (fun (r : Algebra.Rewrite.rewrite) -> r.result)
         (Algebra.Rewrite.everywhere ~peers:all_peers ~fresh plan)
  in
  List.for_all
    (fun a ->
      List.for_all
        (fun b ->
          (not (Expr.equal a b))
          || Expr.Fingerprint.equal (Expr.fingerprint a) (Expr.fingerprint b))
        pool)
    pool

let fingerprint_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:30
       ~name:"Expr.equal implies Fingerprint.equal (plans and rewrites)"
       (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
       fingerprint_soundness)

(* --- best-first against the oracle --------------------------------- *)

(* The select fixture's optimum lies past a costlier push-selection
   intermediate, so a steepest descent stalls short of it; best-first's
   plateau slack must reach it within eight expansions, like the
   joins' optima. *)
let test_strategies_agree () =
  List.iter
    (fun (name, plan) ->
      let best_first = run (Optimizer.Best_first { max_expansions = 8 }) plan in
      Alcotest.(check (float 1e-9))
        (name ^ ": best-first matches exhaustive at depth 2")
        (Algebra.Cost.weighted (snd (optimum plan)))
        (weight best_first))
    fixtures

(* Deterministic fresh names (derived from the parent plan's
   fingerprint) make the oracle rebuild best-first's best plan, and
   make re-runs reproducible. *)
let test_reproducible_plans () =
  List.iter
    (fun (name, plan) ->
      let a = run (Optimizer.Best_first { max_expansions = 8 }) plan in
      let b = run (Optimizer.Best_first { max_expansions = 8 }) plan in
      Alcotest.(check bool) (name ^ ": re-run returns the same plan") true
        (Expr.equal a.plan b.plan);
      Alcotest.(check (list string))
        (name ^ ": re-run returns the same trace")
        (List.map (fun (s : Optimizer.step) -> s.rule) a.trace)
        (List.map (fun (s : Optimizer.step) -> s.rule) b.trace);
      Alcotest.(check bool)
        (name ^ ": exhaustive rebuilds the same best plan")
        true
        (Expr.equal a.plan (fst (optimum plan))))
    fixtures

(* --- map_children traversal order -------------------------------- *)

(* Regression: map_children must visit Shared's children in
   subexpressions order ([value; body]).  Record fields evaluate
   right-to-left, which used to swap the two slots for a stateful
   function — Rewrite.everywhere then rebuilt rewrites of the value
   into the body slot, silently deleting the query. *)
let test_map_children_order () =
  let value = Expr.doc "cat" ~at:"p2" in
  let body = Expr.query_at sel_query ~at:p1 ~args:[ Expr.doc "shared" ~at:"p2" ] in
  let shared =
    Expr.Shared
      { name = Doc.Names.Doc_name.of_string "shared"; at = p2; value; body }
  in
  let seen = ref [] in
  ignore
    (Expr.map_children
       (fun c ->
         seen := c :: !seen;
         c)
       shared);
  Alcotest.(check int) "two children" 2 (List.length !seen);
  (match List.rev !seen with
  | [ first; second ] ->
      Alcotest.(check bool) "value visited first" true (Expr.equal first value);
      Alcotest.(check bool) "body visited second" true (Expr.equal second body)
  | _ -> Alcotest.fail "expected two children");
  (* Positional replacement of child 0 must land in the value slot. *)
  let replacement = Expr.doc "other" ~at:"p3" in
  let j = ref (-1) in
  match
    Expr.map_children
      (fun k ->
        incr j;
        if !j = 0 then replacement else k)
      shared
  with
  | Expr.Shared { value = v; body = b; _ } ->
      Alcotest.(check bool) "value replaced" true (Expr.equal v replacement);
      Alcotest.(check bool) "body intact" true (Expr.equal b body)
  | _ -> Alcotest.fail "still a Shared node"

(* --- the unified planner ----------------------------------------- *)

let test_planner_end_to_end () =
  let plan = List.assoc "select" fixtures in
  let r =
    Planner.plan ~env ~ctx:p1 (Optimizer.Best_first { max_expansions = 8 }) plan
  in
  Alcotest.(check bool) "improves on the naive plan" true
    (Algebra.Cost.weighted r.cost
    < Algebra.Cost.weighted r.search.Optimizer.initial_cost);
  Alcotest.(check bool) "counts structural comparisons" true (r.equal_calls > 0);
  Alcotest.(check string) "names its strategy" "best-first(expansions=8)"
    r.strategy;
  let json = Planner.explain_json r in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
    at 0
  in
  List.iter
    (fun key ->
      Alcotest.(check bool)
        (Printf.sprintf "explain JSON mentions %S" key)
        true
        (contains (Printf.sprintf "%S" key) json))
    [ "strategy"; "initial_cost"; "final_cost"; "trace"; "queries_optimized" ]

let test_planner_execution_correct () =
  (* The planner's chosen plan must produce the naive plan's answers
     on a live system, with less traffic. *)
  let build () =
    let sys = Runtime.System.create topo in
    let rng = Workload.Rng.create ~seed:21 in
    let g = Runtime.System.gen_of sys p2 in
    Runtime.System.add_document sys p2 ~name:"cat"
      (Workload.Xml_gen.catalog ~gen:g ~rng ~items:120 ~selectivity:0.1 ());
    sys
  in
  let naive = List.assoc "select" fixtures in
  let reference = Runtime.Exec.run_to_quiescence (build ()) ~ctx:p1 naive in
  let planned, outcome =
    Runtime.Exec.run_optimized (build ()) ~ctx:p1
      ~strategy:(Optimizer.Best_first { max_expansions = 8 })
      naive
  in
  Alcotest.(check bool) "same answers" true
    (Xml.Canonical.equal_forest reference.results outcome.results);
  Alcotest.(check bool) "fewer bytes on the wire" true
    (outcome.stats.bytes < reference.stats.bytes);
  Alcotest.(check bool) "planner reports an improvement" true
    (Algebra.Cost.weighted planned.Planner.cost
    < Algebra.Cost.weighted planned.Planner.search.Optimizer.initial_cost)

let suite =
  [
    ("fingerprints are node-id blind", `Quick, test_fingerprint_node_id_blind);
    fingerprint_prop;
    ("strategies agree on the fixtures", `Quick, test_strategies_agree);
    ("plans are reproducible across runs and strategies", `Quick,
     test_reproducible_plans);
    ("map_children visits Shared children in order", `Quick,
     test_map_children_order);
    ("planner end to end", `Quick, test_planner_end_to_end);
    ("planned execution stays correct", `Quick, test_planner_execution_correct);
  ]
