(* Tests for the heterogeneous-CPU extension, the message trace, and
   the selectivity estimators. *)

open Axml
open Helpers

let p1 = peer "p1"
let p2 = peer "p2"

(* --- CPU factors -------------------------------------------------- *)

let test_cpu_factor_scales_busy_time () =
  let sim = Net.Sim.create (mesh [ "p1"; "p2" ]) in
  Net.Sim.set_cpu_factor sim p2 4.0;
  Net.Sim.consume_cpu sim ~peer:p1 ~ms:10.0;
  Net.Sim.consume_cpu sim ~peer:p2 ~ms:10.0;
  Alcotest.(check (float 0.001)) "normal peer" 10.0 (Net.Sim.busy_until sim p1);
  Alcotest.(check (float 0.001)) "slow peer" 40.0 (Net.Sim.busy_until sim p2);
  match Net.Sim.set_cpu_factor sim p1 0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero factor"

let test_cpu_factor_in_cost_model () =
  let topo = mesh [ "p1"; "p2" ] in
  let factor p = if Net.Peer_id.equal p p2 then 10.0 else 1.0 in
  let env =
    Algebra.Cost.default_env ~cpu_ms_per_kb:1.0 ~cpu_factor:factor topo
  in
  let q = query "query(1) for $x in $0//a return <r/>" in
  let plan at =
    Algebra.Expr.query_at q ~at
      ~args:[ Algebra.Expr.tree_at (parse "<c><a/></c>") ~at ]
  in
  let fast = Algebra.Cost.of_expr env ~ctx:p1 (plan p1) in
  let slow = Algebra.Cost.of_expr env ~ctx:p2 (plan p2) in
  Alcotest.(check bool) "slow peer costs more latency" true
    (slow.Algebra.Cost.latency_ms > fast.Algebra.Cost.latency_ms)

let test_cpu_factor_runtime_delegation () =
  (* Same plan run on a system where p1 is very slow: delegating the
     computation to p2 must finish earlier despite the transfers. *)
  let build factor_p1 =
    let sys = Runtime.System.create (mesh ~latency:1.0 ~bandwidth:10000.0 [ "p1"; "p2" ]) in
    Net.Sim.set_cpu_factor (Runtime.System.sim sys) p1 factor_p1;
    let rng = Workload.Rng.create ~seed:3 in
    let g = Runtime.System.gen_of sys p1 in
    Runtime.System.add_document sys p1 ~name:"cat"
      (Workload.Xml_gen.catalog ~gen:g ~rng ~items:400 ~selectivity:0.1 ());
    sys
  in
  let q = Workload.Xml_gen.selection_query () in
  let local =
    Algebra.Expr.query_at q ~at:p1 ~args:[ Algebra.Expr.doc "cat" ~at:"p1" ]
  in
  let delegated =
    Algebra.Expr.Query_app
      {
        query =
          Algebra.Expr.Q_send { dest = p2; q = Algebra.Expr.Q_val { q; at = p1 } };
        args =
          [
            Algebra.Expr.Send
              { dest = Algebra.Expr.To_peer p2; expr = Algebra.Expr.doc "cat" ~at:"p1" };
          ];
        at = p2;
      }
  in
  (* Raise the price of computation so the CPU term dominates. *)
  let sys1 =
    let s = build 200.0 in
    s
  in
  let out_local = Runtime.Exec.run_to_quiescence sys1 ~ctx:p1 local in
  let sys2 = build 200.0 in
  let out_delegated = Runtime.Exec.run_to_quiescence sys2 ~ctx:p1 delegated in
  Alcotest.(check bool) "same answers" true
    (Xml.Canonical.equal_forest out_local.results out_delegated.results);
  Alcotest.(check bool) "delegation to the fast peer is faster" true
    (out_delegated.elapsed_ms < out_local.elapsed_ms)

(* --- Message tracing ---------------------------------------------- *)

let test_trace_records_messages () =
  let sys = Runtime.System.create (mesh [ "p1"; "p2" ]) in
  Runtime.System.load_document sys p2 ~name:"d" ~xml:"<d><x/></d>";
  with_tracing @@ fun () ->
  let out =
    Runtime.Exec.run_to_quiescence sys ~ctx:p1 (Algebra.Expr.doc "d" ~at:"p2")
  in
  Alcotest.(check int) "fetched" 1 (List.length out.results);
  let trace = xfers () in
  Alcotest.(check bool) "trace nonempty" true (trace <> []);
  (* The eval-request and the stream back appear, with notes. *)
  Alcotest.(check bool) "notes rendered" true
    (List.for_all (fun (x : Net.Sim.xfer) -> x.note <> "") trace);
  let directions =
    List.map
      (fun (x : Net.Sim.xfer) ->
        (Net.Peer_id.to_string x.src, Net.Peer_id.to_string x.dst))
      trace
  in
  Alcotest.(check bool) "p1->p2 request" true
    (List.mem ("p1", "p2") directions);
  Alcotest.(check bool) "p2->p1 response" true
    (List.mem ("p2", "p1") directions);
  (* Clearing the trace empties it. *)
  Obs.Trace.clear ();
  Alcotest.(check int) "cleared" 0 (List.length (xfers ()))

let test_trace_off_by_default () =
  Obs.Trace.clear ();
  let sys = Runtime.System.create (mesh [ "p1"; "p2" ]) in
  Runtime.System.load_document sys p2 ~name:"d" ~xml:"<d/>";
  let out =
    Runtime.Exec.run_to_quiescence sys ~ctx:p1 (Algebra.Expr.doc "d" ~at:"p2")
  in
  Alcotest.(check bool) "messages sent" true (out.stats.messages > 0);
  Alcotest.(check int) "no trace" 0 (List.length (xfers ()))

(* --- Selectivity estimators --------------------------------------- *)

let catalog_forest () =
  let rng = Workload.Rng.create ~seed:21 in
  let g = Xml.Node_id.Gen.create ~namespace:"selcat" in
  [ Workload.Xml_gen.catalog ~gen:g ~rng ~items:200 ~selectivity:0.1 () ]

let test_oracle_estimate () =
  let q = Workload.Xml_gen.selection_query () in
  let est =
    Query.Selectivity.oracle
      ~gen:(Xml.Node_id.Gen.create ~namespace:"est")
      q [ catalog_forest () ]
  in
  Alcotest.(check bool) "cardinality near 10%" true
    (est.cardinality > 5 && est.cardinality < 50);
  Alcotest.(check bool) "bytes positive" true (est.bytes > 0)

let test_stats_histogram () =
  let stats = Query.Selectivity.Stats.of_forest (catalog_forest ()) in
  Alcotest.(check int) "items counted" 200
    (Query.Selectivity.Stats.label_count stats (Xml.Label.of_string "item"));
  Alcotest.(check int) "absent label" 0
    (Query.Selectivity.Stats.label_count stats (Xml.Label.of_string "zzz"));
  Alcotest.(check bool) "avg bytes plausible" true
    (Query.Selectivity.Stats.avg_bytes stats (Xml.Label.of_string "item") > 50);
  Alcotest.(check bool) "totals" true
    (Query.Selectivity.Stats.total_nodes stats > 600
    && Query.Selectivity.Stats.total_bytes stats > 10_000)

let test_sketch_estimate_in_ballpark () =
  let q = Workload.Xml_gen.selection_query () in
  let stats = [ Query.Selectivity.Stats.of_forest (catalog_forest ()) ] in
  let sketch = Query.Selectivity.sketch q stats in
  let oracle =
    Query.Selectivity.oracle
      ~gen:(Xml.Node_id.Gen.create ~namespace:"est2")
      q [ catalog_forest () ]
  in
  (* The sketch knows nothing about data correlations; require the
     order of magnitude only. *)
  Alcotest.(check bool) "within 100x of truth" true
    (sketch.cardinality <= oracle.cardinality * 100
    && oracle.cardinality <= max 1 sketch.cardinality * 100);
  Alcotest.(check bool) "bytes positive" true (sketch.bytes > 0)

let test_sketch_monotone_in_predicates () =
  (* Adding a conjunct cannot increase the estimated cardinality. *)
  let base = query "query(1) for $x in $0//item return <r>{$x}</r>" in
  let narrowed =
    query
      {|query(1) for $x in $0//item where attr($x, "category") = "wanted" return <r>{$x}</r>|}
  in
  let stats = [ Query.Selectivity.Stats.of_forest (catalog_forest ()) ] in
  let e_base = Query.Selectivity.sketch base stats in
  let e_narrow = Query.Selectivity.sketch narrowed stats in
  Alcotest.(check bool) "narrowing shrinks estimate" true
    (e_narrow.cardinality <= e_base.cardinality)

let suite =
  [
    ("cpu factor scales busy time", `Quick, test_cpu_factor_scales_busy_time);
    ("cpu factor in cost model", `Quick, test_cpu_factor_in_cost_model);
    ("delegation to a fast peer wins", `Quick, test_cpu_factor_runtime_delegation);
    ("trace records messages", `Quick, test_trace_records_messages);
    ("trace off by default", `Quick, test_trace_off_by_default);
    ("oracle estimate", `Quick, test_oracle_estimate);
    ("label histograms", `Quick, test_stats_histogram);
    ("sketch in the ballpark", `Quick, test_sketch_estimate_in_ballpark);
    ("sketch monotone in predicates", `Quick, test_sketch_monotone_in_predicates);
  ]
