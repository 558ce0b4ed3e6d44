open Axml
open Helpers
module Expr = Algebra.Expr
module Optimizer = Algebra.Optimizer
module System = Runtime.System

let p1 = peer "p1"
let p2 = peer "p2"

let topo = mesh ~latency:10.0 ~bandwidth:100.0 [ "p1"; "p2"; "p3" ]

let catalog_xml seed items sel =
  let rng = Workload.Rng.create ~seed in
  let g = Xml.Node_id.Gen.create ~namespace:"cat" in
  Xml.Serializer.to_string
    (Workload.Xml_gen.catalog ~gen:g ~rng ~items ~selectivity:sel ())

let sel_query = Workload.Xml_gen.selection_query ()

let naive_plan = Expr.query_at sel_query ~at:p1 ~args:[ Expr.doc "cat" ~at:"p2" ]

let env =
  Algebra.Cost.default_env ~doc_bytes:(fun _ -> 20_000) topo

let best_first = Optimizer.Best_first { max_expansions = 32 }

let test_best_first_improves () =
  let r = Optimizer.optimize ~env ~ctx:p1 best_first naive_plan in
  Alcotest.(check bool) "strictly better" true
    (Algebra.Cost.weighted r.cost < Algebra.Cost.weighted r.initial_cost);
  Alcotest.(check bool) "took at least one step" true (r.trace <> []);
  Alcotest.(check bool) "explored plans" true (r.explored > 1)

let test_exhaustive_no_worse_than_best_first () =
  let r = Optimizer.optimize ~env ~ctx:p1 best_first naive_plan in
  let _, exhaustive = Test_planner.exhaustive ~env ~ctx:p1 ~depth:2 naive_plan in
  Alcotest.(check bool) "exhaustive <= best-first" true
    (Algebra.Cost.weighted exhaustive <= Algebra.Cost.weighted r.cost +. 1e-9)

let test_optimized_plan_still_correct () =
  (* The optimizer's favourite plan must produce the same answers on
     the live system. *)
  let xml = catalog_xml 11 80 0.1 in
  let build () =
    let sys = System.create topo in
    System.load_document sys p2 ~name:"cat" ~xml;
    sys
  in
  let reference =
    Runtime.Exec.run_to_quiescence (build ()) ~ctx:p1 naive_plan
  in
  let r = Optimizer.optimize ~env ~ctx:p1 best_first naive_plan in
  let optimized = Runtime.Exec.run_to_quiescence (build ()) ~ctx:p1 r.plan in
  Alcotest.(check bool) "same results" true
    (Xml.Canonical.equal_forest reference.results optimized.results);
  Alcotest.(check bool) "fewer bytes on the wire" true
    (optimized.stats.bytes < reference.stats.bytes)

let test_stable_when_optimal () =
  (* A purely local plan cannot be improved; the optimizer must return
     it unchanged. *)
  let local = Expr.query_at sel_query ~at:p1 ~args:[ Expr.doc "cat" ~at:"p1" ] in
  let r = Optimizer.optimize ~env ~ctx:p1 best_first local in
  Alcotest.(check bool) "unchanged" true (Expr.equal r.plan local);
  Alcotest.(check (list string)) "no steps" []
    (List.map (fun (s : Optimizer.step) -> s.rule) r.trace)

let test_objective_respected () =
  (* With a latency-only objective, the chosen plan's latency must not
     exceed the bytes-optimal plan's latency. *)
  let latency_only c = c.Algebra.Cost.latency_ms in
  let bytes_only c = float_of_int c.Algebra.Cost.bytes in
  let by_latency =
    Optimizer.optimize ~env ~ctx:p1 ~objective:latency_only best_first naive_plan
  in
  let by_bytes =
    Optimizer.optimize ~env ~ctx:p1 ~objective:bytes_only best_first naive_plan
  in
  Alcotest.(check bool) "latency objective" true
    (by_latency.cost.Algebra.Cost.latency_ms
    <= by_bytes.cost.Algebra.Cost.latency_ms +. 1e-9);
  Alcotest.(check bool) "bytes objective" true
    (by_bytes.cost.Algebra.Cost.bytes <= by_latency.cost.Algebra.Cost.bytes)

let suite =
  [
    ("best-first improves the naive plan", `Quick, test_best_first_improves);
    ("exhaustive at least as good", `Quick,
     test_exhaustive_no_worse_than_best_first);
    ("optimized plan stays correct", `Quick, test_optimized_plan_still_correct);
    ("local plans are fixpoints", `Quick, test_stable_when_optimal);
    ("objective function respected", `Quick, test_objective_respected);
  ]
