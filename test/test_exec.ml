open Axml
open Helpers
module Expr = Algebra.Expr
module Names = Doc.Names
module System = Runtime.System
module Exec = Runtime.Exec

let p1 = peer "p1"
let p2 = peer "p2"
let p3 = peer "p3"

let make_system () =
  System.create (mesh ~latency:10.0 ~bandwidth:100.0 [ "p1"; "p2"; "p3" ])

let sel_query =
  query {|query(1) for $x in $0//item where attr($x, "k") = "y" return <hit>{$x}</hit>|}

let catalog_xml =
  {|<catalog><item k="y"><name>a</name></item><item k="n"><name>b</name></item><item k="y"><name>c</name></item></catalog>|}

let run sys ~ctx e = Exec.run_to_quiescence sys ~ctx e

(* Definition (1): a plain local tree evaluates to itself. *)
let test_local_data () =
  let sys = make_system () in
  let t = parse "<a><b>x</b></a>" in
  let out = run sys ~ctx:p1 (Expr.tree_at t ~at:p1) in
  Alcotest.(check bool) "finished" true out.finished;
  check_canonical_forests "identity" [ t ] out.results;
  Alcotest.(check int) "no network traffic" 0 out.stats.messages

(* Definition (5): remote data is evaluated at its home and shipped. *)
let test_remote_data () =
  let sys = make_system () in
  let t = parse "<a>remote</a>" in
  let out = run sys ~ctx:p1 (Expr.tree_at t ~at:p2) in
  check_canonical_forests "shipped" [ t ] out.results;
  Alcotest.(check bool) "messages flowed" true (out.stats.messages >= 2);
  Alcotest.(check bool) "took time" true (out.elapsed_ms > 0.0)

let test_local_doc () =
  let sys = make_system () in
  System.load_document sys p1 ~name:"cat" ~xml:catalog_xml;
  let out = run sys ~ctx:p1 (Expr.doc "cat" ~at:"p1") in
  Alcotest.(check int) "one tree" 1 (List.length out.results);
  Alcotest.(check int) "local: no messages" 0 out.stats.messages

let test_remote_doc () =
  let sys = make_system () in
  System.load_document sys p2 ~name:"cat" ~xml:catalog_xml;
  let out = run sys ~ctx:p1 (Expr.doc "cat" ~at:"p2") in
  Alcotest.(check int) "one tree" 1 (List.length out.results);
  Alcotest.(check bool) "doc bytes shipped" true
    (out.stats.bytes > String.length catalog_xml / 2)

let test_missing_doc_yields_empty () =
  let sys = make_system () in
  let out = run sys ~ctx:p1 (Expr.doc "ghost" ~at:"p1") in
  Alcotest.(check bool) "finished empty" true
    (out.finished && out.results = [])

(* Definition (2): local query application. *)
let test_local_query_app () =
  let sys = make_system () in
  System.load_document sys p1 ~name:"cat" ~xml:catalog_xml;
  let out =
    run sys ~ctx:p1
      (Expr.query_at sel_query ~at:p1 ~args:[ Expr.doc "cat" ~at:"p1" ])
  in
  Alcotest.(check int) "two hits" 2 (List.length out.results);
  Alcotest.(check bool) "finished" true out.finished

(* Definition (7)/(5): remote argument fetched to the query. *)
let test_query_over_remote_doc () =
  let sys = make_system () in
  System.load_document sys p2 ~name:"cat" ~xml:catalog_xml;
  let out =
    run sys ~ctx:p1
      (Expr.query_at sel_query ~at:p1 ~args:[ Expr.doc "cat" ~at:"p2" ])
  in
  Alcotest.(check int) "two hits" 2 (List.length out.results)

(* Definition (7): the query ships when applied away from home. *)
let test_query_applied_remotely () =
  let sys = make_system () in
  System.load_document sys p2 ~name:"cat" ~xml:catalog_xml;
  let e =
    Expr.query_app
      (Expr.Q_val { q = sel_query; at = p1 })
      ~args:[ Expr.doc "cat" ~at:"p2" ]
      ~at:p2
  in
  let out = run sys ~ctx:p1 e in
  Alcotest.(check int) "two hits" 2 (List.length out.results);
  (* The query text must have crossed p1 -> p2. *)
  let crossed =
    List.exists
      (fun ((src, dst), _) ->
        Net.Peer_id.equal src p1 && Net.Peer_id.equal dst p2)
      out.stats.per_link
  in
  Alcotest.(check bool) "query shipped p1->p2" true crossed

(* Definition (8): send(p2, q) deploys a service. *)
let test_query_send_deploys () =
  let sys = make_system () in
  System.load_document sys p2 ~name:"cat" ~xml:catalog_xml;
  let e =
    Expr.query_app
      (Expr.Q_send { dest = p2; q = Expr.Q_val { q = sel_query; at = p1 } })
      ~args:[ Expr.doc "cat" ~at:"p2" ]
      ~at:p2
  in
  let out = run sys ~ctx:p1 e in
  Alcotest.(check int) "two hits" 2 (List.length out.results);
  let p2_services =
    Doc.Registry.names (System.peer sys p2).Runtime.Peer.registry
  in
  Alcotest.(check bool) "service deployed at p2" true
    (List.exists
       (fun n ->
         let s = Names.Service_name.to_string n in
         String.length s >= 4 && String.sub s 0 4 = "_tmp")
       p2_services)

(* Definition (6): sc activation, response back to the caller. *)
let register_resolver sys at =
  System.add_service sys at
    (Doc.Service.declarative ~name:"find"
       (query
          {|query(1) for $x in $0//item where attr($x, "k") = "y" return <found>{$x}</found>|}))

let test_sc_call_response () =
  let sys = make_system () in
  register_resolver sys p2;
  let sc =
    Doc.Sc.make ~provider:(Names.At p2) ~service:"find"
      [ [ parse catalog_xml ] ]
  in
  let out = run sys ~ctx:p1 (Expr.sc sc ~at:p1) in
  Alcotest.(check int) "two found" 2 (List.length out.results)

(* Definition (6) with forward list: results flow into a document. *)
let test_sc_forward_list () =
  let sys = make_system () in
  register_resolver sys p2;
  let gen3 = System.gen_of sys p3 in
  let inbox = Xml.Tree.element_of_string ~gen:gen3 "inbox" [] in
  let inbox_id = Option.get (Xml.Tree.id inbox) in
  System.add_document sys p3 ~name:"collector" inbox;
  let sc =
    Doc.Sc.make
      ~forward:[ Names.Node_ref.make ~node:inbox_id ~peer:p3 ]
      ~provider:(Names.At p2) ~service:"find"
      [ [ parse catalog_xml ] ]
  in
  let out = run sys ~ctx:p1 (Expr.sc sc ~at:p1) in
  Alcotest.(check int) "caller gets nothing" 0 (List.length out.results);
  match System.find_document sys p3 "collector" with
  | Some doc ->
      Alcotest.(check int) "results landed at p3" 2
        (List.length (Xml.Tree.children (Doc.Document.root doc)))
  | None -> Alcotest.fail "collector disappeared"

(* Extern continuous service: successive responses. *)
let test_extern_continuous_stream () =
  let sys = make_system () in
  let svc =
    Doc.Service.extern ~name:"ticker"
      ~signature:(Schema.Signature.untyped ~arity:0)
      (fun _ ->
        let g = Xml.Node_id.Gen.create ~namespace:"tick" in
        List.init 3 (fun i ->
            Xml.Tree.element_of_string ~gen:g "tick"
              [ Xml.Tree.text (string_of_int i) ]))
  in
  System.add_service sys p2 svc;
  let sc = Doc.Sc.make ~provider:(Names.At p2) ~service:"ticker" [] in
  let out = run sys ~ctx:p1 (Expr.sc sc ~at:p1) in
  Alcotest.(check int) "three ticks" 3 (List.length out.results);
  Alcotest.(check bool) "spread in time" true (out.elapsed_ms > 2.0)

(* Definition (9): generic documents resolve through the catalog. *)
let test_generic_doc_resolution () =
  let sys = make_system () in
  System.load_document sys p2 ~name:"cat" ~xml:catalog_xml;
  System.load_document sys p3 ~name:"cat" ~xml:catalog_xml;
  System.register_doc_class sys ~class_name:"mirror"
    (Names.Doc_ref.at_peer "cat" ~peer:"p2");
  System.register_doc_class sys ~class_name:"mirror"
    (Names.Doc_ref.at_peer "cat" ~peer:"p3");
  let out = run sys ~ctx:p1 (Expr.doc_any "mirror") in
  Alcotest.(check int) "resolved" 1 (List.length out.results);
  (* Unknown class: empty. *)
  let out2 = run sys ~ctx:p1 (Expr.doc_any "nothing") in
  Alcotest.(check bool) "unknown class empty" true
    (out2.finished && out2.results = [])

let test_generic_service_resolution () =
  let sys = make_system () in
  register_resolver sys p2;
  System.register_service_class sys ~class_name:"find_any"
    (Names.Service_ref.at_peer "find" ~peer:"p2");
  let sc =
    Doc.Sc.make ~provider:Names.Any ~service:"find_any" [ [ parse catalog_xml ] ]
  in
  let out = run sys ~ctx:p1 (Expr.sc sc ~at:p1) in
  Alcotest.(check int) "resolved service" 2 (List.length out.results)

(* send to a third peer. *)
let test_send_to_peer_moves_data () =
  let sys = make_system () in
  System.load_document sys p2 ~name:"cat" ~xml:catalog_xml;
  let e = Expr.send_to_peer p1 (Expr.doc "cat" ~at:"p2") in
  let out = run sys ~ctx:p1 e in
  Alcotest.(check int) "arrived" 1 (List.length out.results);
  let direct =
    List.exists
      (fun ((src, dst), _) ->
        Net.Peer_id.equal src p2 && Net.Peer_id.equal dst p1)
      out.stats.per_link
  in
  Alcotest.(check bool) "data moved p2->p1" true direct

(* Definition (4): multicast into nodes, ∅ result. *)
let test_send_to_nodes () =
  let sys = make_system () in
  System.load_document sys p2 ~name:"cat" ~xml:catalog_xml;
  let add_inbox p =
    let g = System.gen_of sys p in
    let inbox = Xml.Tree.element_of_string ~gen:g "inbox" [] in
    System.add_document sys p ~name:"inbox" inbox;
    Option.get (Xml.Tree.id inbox)
  in
  let n1 = add_inbox p1 and n3 = add_inbox p3 in
  let e =
    Expr.send_to_nodes
      [
        Names.Node_ref.make ~node:n1 ~peer:p1;
        Names.Node_ref.make ~node:n3 ~peer:p3;
      ]
      (Expr.doc "cat" ~at:"p2")
  in
  let out = run sys ~ctx:p1 e in
  Alcotest.(check int) "empty result" 0 (List.length out.results);
  Alcotest.(check bool) "finished" true out.finished;
  let inbox_count p =
    match System.find_document sys p "inbox" with
    | Some d -> List.length (Xml.Tree.children (Doc.Document.root d))
    | None -> -1
  in
  Alcotest.(check int) "p1 inbox" 1 (inbox_count p1);
  Alcotest.(check int) "p3 inbox" 1 (inbox_count p3)

(* Installing as a new document (send(d@p2, e)). *)
let test_send_as_doc () =
  let sys = make_system () in
  System.load_document sys p2 ~name:"cat" ~xml:catalog_xml;
  let e = Expr.send_as_doc ~name:"copy" ~at:p3 (Expr.doc "cat" ~at:"p2") in
  let out = run sys ~ctx:p1 e in
  Alcotest.(check bool) "empty and finished" true
    (out.finished && out.results = []);
  match System.find_document sys p3 "copy" with
  | Some d ->
      Alcotest.(check bool) "installed" true
        (Xml.Canonical.equal (Doc.Document.root d) (parse catalog_xml))
  | None -> Alcotest.fail "document not installed"

(* Rule (14) executable form: delegation via Eval_at. *)
let test_eval_at_delegation () =
  let sys = make_system () in
  System.load_document sys p2 ~name:"cat" ~xml:catalog_xml;
  let inner = Expr.query_at sel_query ~at:p2 ~args:[ Expr.doc "cat" ~at:"p2" ] in
  let out = run sys ~ctx:p1 (Expr.eval_at p2 inner) in
  Alcotest.(check int) "hits" 2 (List.length out.results)

(* Rule (13) executable form: Shared materializes then reuses. *)
let test_shared_materialization () =
  let sys = make_system () in
  System.load_document sys p2 ~name:"cat" ~xml:catalog_xml;
  let joined =
    query
      {|query(2) for $x in $0//item, $y in $1//item where attr($x, "k") = "y" and attr($y, "k") = "y" return <pair/>|}
  in
  let shared =
    Expr.shared ~name:"_tmp_m" ~at:p1
      ~value:(Expr.doc "cat" ~at:"p2")
      ~body:
        (Expr.query_at joined ~at:p1
           ~args:[ Expr.doc "_tmp_m" ~at:"p1"; Expr.doc "_tmp_m" ~at:"p1" ])
  in
  let out = run sys ~ctx:p1 shared in
  Alcotest.(check int) "2x2 pairs" 4 (List.length out.results);
  (* The catalog crossed the network exactly once. *)
  let p2_to_p1 =
    List.fold_left
      (fun acc ((src, dst), (m, _)) ->
        if Net.Peer_id.equal src p2 && Net.Peer_id.equal dst p1 then acc + m
        else acc)
      0 out.stats.per_link
  in
  Alcotest.(check int) "one transfer from p2" 1 p2_to_p1

let test_composed_query_exec () =
  let sys = make_system () in
  System.load_document sys p1 ~name:"cat" ~xml:catalog_xml;
  let composed =
    query
      {|compose { query(1) for $h in $0 return <w>{text($h)}</w> } ({ query(1) for $x in $0//item where attr($x, "k") = "y" return <hit>{text($x)}</hit> })|}
  in
  let out =
    run sys ~ctx:p1
      (Expr.query_at composed ~at:p1 ~args:[ Expr.doc "cat" ~at:"p1" ])
  in
  Alcotest.(check int) "wrapped hits" 2 (List.length out.results)

let suite =
  [
    ("def 1: local data", `Quick, test_local_data);
    ("def 5: remote data ships", `Quick, test_remote_data);
    ("local document", `Quick, test_local_doc);
    ("remote document", `Quick, test_remote_doc);
    ("missing document", `Quick, test_missing_doc_yields_empty);
    ("def 2: local query application", `Quick, test_local_query_app);
    ("query over remote doc", `Quick, test_query_over_remote_doc);
    ("def 7: query ships to site", `Quick, test_query_applied_remotely);
    ("def 8: query send deploys", `Quick, test_query_send_deploys);
    ("def 6: sc call and response", `Quick, test_sc_call_response);
    ("def 6: forward list", `Quick, test_sc_forward_list);
    ("continuous extern stream", `Quick, test_extern_continuous_stream);
    ("def 9: generic document", `Quick, test_generic_doc_resolution);
    ("def 9: generic service", `Quick, test_generic_service_resolution);
    ("send to peer", `Quick, test_send_to_peer_moves_data);
    ("def 4: send to nodes", `Quick, test_send_to_nodes);
    ("install as document", `Quick, test_send_as_doc);
    ("rule 14 delegation", `Quick, test_eval_at_delegation);
    ("rule 13 materialization", `Quick, test_shared_materialization);
    ("composed query execution", `Quick, test_composed_query_exec);
  ]
