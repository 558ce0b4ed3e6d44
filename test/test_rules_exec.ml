(* V1-V7 of DESIGN.md: executable verification that the equivalence
   rules of Section 3.3 preserve behaviour.  For each base plan we
   enumerate every rewrite Rewrite.everywhere produces, execute the
   original and the rewritten plan on two freshly built, identical
   systems, and require (a) canonically equal emitted results, (b)
   equal Σ fingerprints (documents and services, auxiliary "_tmp"
   resources excluded), and (c) both runs to terminate. *)

open Axml
open Helpers
module Expr = Algebra.Expr
module Names = Doc.Names
module System = Runtime.System
module Exec = Runtime.Exec

let p1 = peer "p1"
let p2 = peer "p2"
let p3 = peer "p3"
let all_peers = [ p1; p2; p3 ]

let catalog_xml =
  {|<catalog><item k="y"><name>alpha</name></item><item k="n"><name>beta</name></item><item k="y"><name>gamma</name></item><item k="n"><name>delta</name></item></catalog>|}

let orders_xml =
  {|<orders><order item="alpha"/><order item="gamma"/><order item="zeta"/></orders>|}

(* A fresh system with the reference Σ.  The inbox node id must be
   stable across rebuilds for plans with forward lists: we rebuild it
   with a dedicated namespace whose counter restarts every time. *)
let build_system ?transport ?wire ?flush_ms ?ack_delay_ms () =
  let sys =
    System.create ?transport ?wire ?flush_ms ?ack_delay_ms
      (mesh ~latency:10.0 ~bandwidth:100.0 [ "p1"; "p2"; "p3" ])
  in
  System.load_document sys p2 ~name:"cat" ~xml:catalog_xml;
  System.load_document sys p3 ~name:"orders" ~xml:orders_xml;
  System.add_service sys p2
    (Doc.Service.declarative ~name:"find_wanted"
       (query
          {|query(1) for $x in $0//item where attr($x, "k") = "y" return <found>{$x}</found>|}));
  let inbox_gen = Xml.Node_id.Gen.create ~namespace:"inbox" in
  let inbox = Xml.Tree.element_of_string ~gen:inbox_gen "inbox" [] in
  let inbox_id = Option.get (Xml.Tree.id inbox) in
  System.add_document sys p3 ~name:"collector" inbox;
  (sys, inbox_id)

let sel_query =
  query
    {|query(1) for $x in $0//item where attr($x, "k") = "y" return <hit>{$x}</hit>|}

let join_query =
  query
    {|query(2) for $o in $0//order, $i in $1//item, $n in $i/name where attr($o, "item") = text($n) return <match>{$n}</match>|}

let wrap_query = query "query(1) for $h in $0 return <w>{$h}</w>"

let base_plans inbox_id =
  [
    ( "remote-selection",
      Expr.query_at sel_query ~at:p1 ~args:[ Expr.doc "cat" ~at:"p2" ] );
    ( "two-site-join",
      Expr.query_at join_query ~at:p1
        ~args:[ Expr.doc "orders" ~at:"p3"; Expr.doc "cat" ~at:"p2" ] );
    ( "sc-with-forward",
      Expr.sc
        (Doc.Sc.make
           ~forward:[ Names.Node_ref.make ~node:inbox_id ~peer:p3 ]
           ~provider:(Names.At p2) ~service:"find_wanted"
           [ [ parse catalog_xml ] ])
        ~at:p1 );
    ( "query-over-sc",
      Expr.query_at wrap_query ~at:p1
        ~args:
          [
            Expr.sc
              (Doc.Sc.make ~provider:(Names.At p2) ~service:"find_wanted"
                 [ [ parse catalog_xml ] ])
              ~at:p1;
          ] );
    ( "duplicate-transfer",
      Expr.query_at
        (query
           {|query(2) for $x in $0//item, $y in $1//item where attr($x, "k") = "y" and attr($y, "k") = "n" return <pair/>|})
        ~at:p1
        ~args:
          [
            Expr.send_to_peer p1 (Expr.doc "cat" ~at:"p2");
            Expr.send_to_peer p1 (Expr.doc "cat" ~at:"p2");
          ] );
    ("plain-transfer", Expr.send_to_peer p1 (Expr.doc "cat" ~at:"p2"));
    ( "install-remote-copy",
      Expr.send_as_doc ~name:"catcopy" ~at:p1 (Expr.doc "cat" ~at:"p2") );
  ]

let execute plan =
  let sys, _ = build_system () in
  let out = Exec.run_to_quiescence sys ~ctx:p1 plan in
  (out, System.fingerprint sys)

let fresh_counter () =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "_tmp_f%d" !n

let check_plan name plan =
  let (reference : Exec.outcome), ref_fp = execute plan in
  Alcotest.(check bool)
    (Printf.sprintf "%s: reference run terminates" name)
    true reference.finished;
  let rewrites =
    Algebra.Rewrite.everywhere ~peers:all_peers ~fresh:(fresh_counter ()) plan
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s: has rewrites" name)
    true (rewrites <> []);
  List.iter
    (fun (r : Algebra.Rewrite.rewrite) ->
      let out, fp = execute r.result in
      let label = Printf.sprintf "%s / %s" name r.rule in
      Alcotest.(check bool)
        (Printf.sprintf "%s: terminates" label)
        true out.finished;
      Alcotest.(check bool)
        (Printf.sprintf "%s: same results" label)
        true
        (Xml.Canonical.equal_forest reference.results out.results);
      Alcotest.(check string)
        (Printf.sprintf "%s: same final state" label)
        ref_fp fp)
    rewrites

let make_case (name, plan) =
  ( Printf.sprintf "rules preserve: %s" name,
    `Quick,
    fun () -> check_plan name plan )

(* Two rewrite steps composed still preserve behaviour. *)
let test_two_step_composition () =
  let _, inbox_id = build_system () in
  ignore inbox_id;
  let plan = Expr.query_at sel_query ~at:p1 ~args:[ Expr.doc "cat" ~at:"p2" ] in
  let (reference : Exec.outcome), ref_fp = execute plan in
  let fresh = fresh_counter () in
  let step1 = Algebra.Rewrite.everywhere ~peers:all_peers ~fresh plan in
  let checked = ref 0 in
  List.iteri
    (fun i (r1 : Algebra.Rewrite.rewrite) ->
      if i mod 3 = 0 then
        (* Sample every third to keep runtime reasonable. *)
        List.iteri
          (fun j (r2 : Algebra.Rewrite.rewrite) ->
            if j mod 5 = 0 then begin
              incr checked;
              let out, fp = execute r2.result in
              let label = Printf.sprintf "%s; %s" r1.rule r2.rule in
              Alcotest.(check bool) (label ^ ": terminates") true out.finished;
              Alcotest.(check bool)
                (label ^ ": same results")
                true
                (Xml.Canonical.equal_forest reference.results out.results);
              Alcotest.(check string) (label ^ ": same state") ref_fp fp
            end)
          (Algebra.Rewrite.everywhere ~peers:all_peers ~fresh r1.result))
    step1;
  Alcotest.(check bool) "sampled some compositions" true (!checked > 5)

let suite =
  let _, inbox_id = build_system () in
  List.map make_case (base_plans inbox_id)
  @ [ ("two-step rule composition", `Quick, test_two_step_composition) ]
