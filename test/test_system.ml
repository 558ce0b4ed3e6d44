open Axml
open Helpers
module Names = Doc.Names
module System = Runtime.System

let p1 = peer "p1"
let p2 = peer "p2"

let make () = System.create (mesh ~latency:5.0 ~bandwidth:200.0 [ "p1"; "p2" ])

(* Document-level activation (Section 2.2, steps 1-3): results become
   siblings of the sc node. *)
let test_activate_call_default_forward () =
  let sys = make () in
  System.add_service sys p2
    (Doc.Service.declarative ~name:"double"
       (query "query(1) for $x in $0//n return <out>{text($x)}</out>"));
  System.load_document sys p1 ~name:"d"
    ~xml:
      {|<r><sc><peer>p2</peer><service>double</service><param1><q><n>1</n><n>2</n></q></param1></sc></r>|};
  let count = System.activate_all sys () in
  Alcotest.(check int) "one call activated" 1 count;
  ignore (System.run sys);
  match System.find_document sys p1 "d" with
  | Some doc ->
      let root = Doc.Document.root doc in
      Alcotest.(check int) "sc plus two results" 3
        (List.length (Xml.Tree.children root));
      Alcotest.(check int) "results are out elements" 2
        (List.length
           (Xml.Path.select (Xml.Path.of_string "/out") root))
  | None -> Alcotest.fail "document lost"

let test_activate_call_explicit_forward () =
  let sys = make () in
  System.add_service sys p2
    (Doc.Service.declarative ~name:"svc"
       (query "query(1) for $x in $0//n return <out/>"));
  (* Target document on p2; call lives on p1. *)
  let g2 = Runtime.System.gen_of sys p2 in
  let sink = Xml.Tree.element_of_string ~gen:g2 "sink" [] in
  let sink_id = Option.get (Xml.Tree.id sink) in
  System.add_document sys p2 ~name:"target" sink;
  let g1 = Runtime.System.gen_of sys p1 in
  let sc_tree =
    Doc.Sc.to_tree ~gen:g1
      (Doc.Sc.make
         ~forward:[ Names.Node_ref.make ~node:sink_id ~peer:p2 ]
         ~provider:(Names.At p2) ~service:"svc"
         [ [ parse "<q><n>a</n></q>" ] ])
  in
  System.add_document sys p1 ~name:"caller"
    (Xml.Tree.element_of_string ~gen:g1 "r" [ sc_tree ]);
  ignore (System.activate_all sys ());
  ignore (System.run sys);
  (match System.find_document sys p2 "target" with
  | Some doc ->
      Alcotest.(check int) "result forwarded to p2" 1
        (List.length (Xml.Tree.children (Doc.Document.root doc)))
  | None -> Alcotest.fail "target lost");
  (* The caller's document is untouched: results went elsewhere. *)
  match System.find_document sys p1 "caller" with
  | Some doc ->
      Alcotest.(check int) "caller unchanged" 1
        (List.length (Xml.Tree.children (Doc.Document.root doc)))
  | None -> Alcotest.fail "caller lost"

let test_activate_generic_provider () =
  let sys = make () in
  System.add_service sys p2
    (Doc.Service.declarative ~name:"real"
       (query "query(1) for $x in $0 return <ok/>"));
  System.register_service_class sys ~class_name:"cls"
    (Names.Service_ref.at_peer "real" ~peer:"p2");
  System.load_document sys p1 ~name:"d"
    ~xml:
      {|<r><sc><peer>any</peer><service>cls</service><param1><x/></param1></sc></r>|};
  ignore (System.activate_all sys ());
  ignore (System.run sys);
  match System.find_document sys p1 "d" with
  | Some doc ->
      Alcotest.(check int) "resolved and answered" 2
        (List.length (Xml.Tree.children (Doc.Document.root doc)))
  | None -> Alcotest.fail "doc lost"

let test_doc_feed_subscription () =
  let sys = make () in
  (* p2 publishes news; p1 subscribes via a doc_feed call. *)
  System.load_document sys p2 ~name:"news" ~xml:"<feed><n>first</n></feed>";
  System.add_service sys p2 (Doc.Service.doc_feed ~name:"feed" ~doc:"news");
  System.load_document sys p1 ~name:"digest"
    ~xml:{|<digest><sc><peer>p2</peer><service>feed</service></sc></digest>|};
  ignore (System.activate_all sys ());
  ignore (System.run sys);
  let digest_items () =
    match System.find_document sys p1 "digest" with
    | Some doc ->
        List.length
          (Xml.Path.select (Xml.Path.of_string "/n") (Doc.Document.root doc))
    | None -> -1
  in
  Alcotest.(check int) "initial item arrived" 1 (digest_items ());
  (* Publish another item: the feed pushes the delta. *)
  let p2_peer = System.peer sys p2 in
  let news = Option.get (Doc.Store.find_by_string p2_peer.Runtime.Peer.store "news") in
  let root_id = Option.get (Xml.Tree.id (Doc.Document.root news)) in
  let g2 = Runtime.System.gen_of sys p2 in
  System.send sys ~src:p2 ~dst:p2
    (Runtime.Message.Insert
       {
         node = root_id;
         forest = [ Xml.Tree.element_of_string ~gen:g2 "n" [ txt "second" ] ];
         notify = None;
       });
  ignore (System.run sys);
  Alcotest.(check int) "delta pushed" 2 (digest_items ())

let test_fingerprint_stability () =
  let s1 = make () in
  let s2 = make () in
  List.iter
    (fun sys ->
      System.load_document sys p1 ~name:"a" ~xml:"<a><x/><y/></a>";
      System.add_service sys p2
        (Doc.Service.declarative ~name:"s"
           (query "query(1) for $x in $0 return {$x}")))
    [ s1; s2 ];
  Alcotest.(check string) "same state, same fingerprint"
    (System.fingerprint s1) (System.fingerprint s2);
  (* Permuted document children: still the same Σ. *)
  let s3 = make () in
  System.load_document s3 p1 ~name:"a" ~xml:"<a><y/><x/></a>";
  System.add_service s3 p2
    (Doc.Service.declarative ~name:"s" (query "query(1) for $x in $0 return {$x}"));
  Alcotest.(check string) "unordered fingerprint" (System.fingerprint s1)
    (System.fingerprint s3);
  (* Different content: different fingerprint. *)
  let s4 = make () in
  System.load_document s4 p1 ~name:"a" ~xml:"<a><x/></a>";
  System.add_service s4 p2
    (Doc.Service.declarative ~name:"s" (query "query(1) for $x in $0 return {$x}"));
  Alcotest.(check bool) "content matters" false
    (String.equal (System.fingerprint s1) (System.fingerprint s4))

let test_fingerprint_ignores_tmp () =
  let s1 = make () in
  let s2 = make () in
  System.load_document s2 p1 ~name:"_tmp_aux" ~xml:"<x/>";
  Alcotest.(check string) "tmp resources invisible" (System.fingerprint s1)
    (System.fingerprint s2)

let test_install_doc_accumulates () =
  let sys = make () in
  System.send sys ~src:p1 ~dst:p2
    (Runtime.Message.Install_doc
       {
         name = "log";
         forest = [ parse "<entry>1</entry>" ];
         notify = None;
       });
  System.send sys ~src:p1 ~dst:p2
    (Runtime.Message.Install_doc
       {
         name = "log";
         forest = [ parse "<entry>2</entry>" ];
         notify = None;
       });
  ignore (System.run sys);
  match System.find_document sys p2 "log" with
  | Some doc ->
      (* The first batch's tree becomes the document root (its text
         child), and the second batch accumulates under that root. *)
      let root = Doc.Document.root doc in
      Alcotest.(check (option string)) "root is first entry" (Some "entry")
        (Option.map Xml.Label.to_string (Xml.Tree.label root));
      Alcotest.(check int) "second batch accumulated" 2
        (List.length (Xml.Tree.children root))
  | None -> Alcotest.fail "log missing"

let test_unknown_service_degrades () =
  let sys = make () in
  System.load_document sys p1 ~name:"d"
    ~xml:{|<r><sc><peer>p2</peer><service>ghost</service></sc></r>|};
  ignore (System.activate_all sys ());
  ignore (System.run sys);
  (* No response, but the system settles and the document survives. *)
  match System.find_document sys p1 "d" with
  | Some doc ->
      Alcotest.(check int) "document intact" 1
        (List.length (Xml.Tree.children (Doc.Document.root doc)))
  | None -> Alcotest.fail "doc lost"

let suite =
  [
    ("activation: default forwarding", `Quick, test_activate_call_default_forward);
    ("activation: explicit forward list", `Quick, test_activate_call_explicit_forward);
    ("activation: generic provider", `Quick, test_activate_generic_provider);
    ("doc-feed subscription", `Quick, test_doc_feed_subscription);
    ("fingerprint stability", `Quick, test_fingerprint_stability);
    ("fingerprint ignores _tmp", `Quick, test_fingerprint_ignores_tmp);
    ("install accumulates", `Quick, test_install_doc_accumulates);
    ("unknown service degrades gracefully", `Quick, test_unknown_service_degrades);
  ]
