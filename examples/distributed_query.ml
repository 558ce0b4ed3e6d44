(* Distributed query optimization, rule by rule (Section 3.3).

   A three-peer system with data at p2 and p3; we walk through the
   equivalence rules, executing original and rewritten plans and
   printing what each one shipped — Example 1 (pushing selections),
   delegation (rule 10/14), intermediary stops (rule 12), transfer
   sharing (rule 13), and pushing queries over service calls
   (rule 16).

     dune exec examples/distributed_query.exe *)

open Axml
module Expr = Algebra.Expr
module Names = Doc.Names
module System = Runtime.System
module Rewrite = Algebra.Rewrite

let p1 = Net.Peer_id.of_string "p1"
let p2 = Net.Peer_id.of_string "p2"
let p3 = Net.Peer_id.of_string "p3"

let catalog_xml =
  let rng = Workload.Rng.create ~seed:99 in
  let g = Xml.Node_id.Gen.create ~namespace:"gen" in
  Xml.Serializer.to_string
    (Workload.Xml_gen.catalog ~gen:g ~rng ~items:150 ~selectivity:0.05
       ~payload_bytes:80 ())

let build () =
  (* An asymmetric topology: p1-p2 is slow; p3 is well connected to
     both (the "relay" of rule 12's discussion). *)
  let slow = Net.Link.make ~latency_ms:40.0 ~bandwidth_bytes_per_ms:20.0 in
  let fast = Net.Link.make ~latency_ms:5.0 ~bandwidth_bytes_per_ms:500.0 in
  let topo =
    Net.Topology.of_links ~default:slow
      [
        (p1, p3, fast); (p3, p1, fast);
        (p2, p3, fast); (p3, p2, fast);
      ]
      [ p1; p2; p3 ]
  in
  let sys = System.create topo in
  System.load_document sys p2 ~name:"cat" ~xml:catalog_xml;
  System.add_service sys p2
    (Doc.Service.declarative ~name:"wanted_items"
       (Workload.Xml_gen.selection_query_with_payload ()));
  sys

let measure label sys plan =
  let out = Runtime.Exec.run_to_quiescence sys ~ctx:p1 plan in
  Format.printf "  %-28s %7d bytes %4d msgs %8.1f ms  (%d results)@." label
    out.stats.bytes out.stats.messages out.elapsed_ms
    (List.length out.results);
  out

let () =
  Format.printf "catalog: %d bytes at p2, selectivity 5%%@.@."
    (String.length catalog_xml);

  (* --- Example 1: pushing selections --------------------------- *)
  Format.printf "Example 1 — pushing selections:@.";
  let q = Workload.Xml_gen.selection_query () in
  let naive = Expr.query_at q ~at:p1 ~args:[ Expr.doc "cat" ~at:"p2" ] in
  let reference = measure "naive (ship whole doc)" (build ()) naive in
  (match Rewrite.r11_push_selection naive with
  | [ r ] ->
      let out = measure r.rule (build ()) r.result in
      Format.printf "  same answers: %b@."
        (Xml.Canonical.equal_forest reference.results out.results)
  | _ -> assert false);

  (* --- Rule 12: the intermediary stop that helps ---------------- *)
  Format.printf "@.Rule 12 — relaying through a well-connected peer:@.";
  let transfer = Expr.send_to_peer p1 (Expr.doc "cat" ~at:"p2") in
  ignore (measure "direct p2 -> p1 (slow link)" (build ()) transfer);
  let relayed =
    Expr.send_to_peer p1 (Expr.send_to_peer p3 (Expr.doc "cat" ~at:"p2"))
  in
  ignore (measure "via p3 (two fast links)" (build ()) relayed);

  (* --- Rule 13: sharing a repeated transfer --------------------- *)
  Format.printf "@.Rule 13 — transfer sharing:@.";
  let join =
    Query.Parser.parse_exn
      {|query(2) for $x in $0//item, $y in $1//item
        where attr($x, "category") = "wanted" and attr($y, "category") = "wanted"
        return <pair/>|}
  in
  let fetch = Expr.send_to_peer p1 (Expr.doc "cat" ~at:"p2") in
  let twice = Expr.query_at join ~at:p1 ~args:[ fetch; fetch ] in
  ignore (measure "fetch the catalog twice" (build ()) twice);
  (match Rewrite.r13_share ~fresh:(fun () -> "_tmp_shared") twice with
  | r :: _ -> ignore (measure r.rule (build ()) r.result)
  | [] -> assert false);

  (* --- Rule 16: pushing a query over a service call ------------- *)
  Format.printf "@.Rule 16 — pushing a query over a service call:@.";
  let probe =
    Query.Parser.parse_exn
      {|query(1) for $h in $0, $n in $h//name return <just_name>{$n}</just_name>|}
  in
  let sc =
    Doc.Sc.make ~provider:(Names.At p2) ~service:"wanted_items"
      [ [ Xml.Parser.parse_exn ~gen:(Xml.Node_id.Gen.create ~namespace:"x") catalog_xml ] ]
  in
  let over_call =
    Expr.query_at probe ~at:p1 ~args:[ Expr.sc sc ~at:p1 ]
  in
  let ref16 = measure "q over sc at caller" (build ()) over_call in
  (match Rewrite.r16_push_query_over_sc over_call with
  | [ r ] ->
      let out = measure r.rule (build ()) r.result in
      Format.printf "  same answers: %b@."
        (Xml.Canonical.equal_forest ref16.results out.results);
      Format.printf
        "  (here the call's parameters dominate, so pushing loses — the@.";
      Format.printf
        "   crossover vs. service-output size is swept in bench E7)@."
  | _ -> assert false);

  (* --- Full optimizer ------------------------------------------- *)
  Format.printf "@.Optimizer (best-first, cost-model driven) on the naive plan:@.";
  let sys = build () in
  let env =
    Algebra.Cost.default_env
      ~doc_bytes:(fun _ -> String.length catalog_xml)
      ~service_query:(fun r ->
        if Names.Service_ref.to_string r = "wanted_items@p2" then
          Some (Workload.Xml_gen.selection_query_with_payload ())
        else None)
      (Net.Sim.topology (System.sim sys))
  in
  let result =
    Algebra.Optimizer.optimize ~env ~ctx:p1
      (Algebra.Optimizer.Best_first { max_expansions = 4 })
      naive
  in
  Format.printf "%a@." Algebra.Optimizer.pp_result result;
  ignore (measure "optimizer's plan, executed" (build ()) result.plan)
