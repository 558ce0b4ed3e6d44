open Axml
open Helpers
module Expr = Algebra.Expr
module Names = Doc.Names

let p1 = peer "p1"
let p2 = peer "p2"
let p3 = peer "p3"

let sel_query = query {|query(1) for $x in $0//item where attr($x, "k") = "y" return <hit>{$x}</hit>|}

let sample_exprs () =
  let g = gen () in
  let node = Xml.Node_id.Gen.fresh g in
  [
    Expr.tree_at (parse "<a><b/></a>") ~at:p1;
    Expr.data_at [ parse "<a/>"; txt "t" ] ~at:p2;
    Expr.doc "cat" ~at:"p2";
    Expr.doc_any "mirror";
    Expr.query_at sel_query ~at:p1 ~args:[ Expr.doc "cat" ~at:"p2" ];
    Expr.sc
      (Doc.Sc.make
         ~forward:[ Names.Node_ref.make ~node ~peer:p3 ]
         ~provider:(Names.At p2) ~service:"svc"
         [ [ parse "<arg/>" ] ])
      ~at:p1;
    Expr.send_to_peer p2 (Expr.tree_at (parse "<x/>") ~at:p1);
    Expr.send_to_nodes
      [ Names.Node_ref.make ~node ~peer:p3 ]
      (Expr.doc "cat" ~at:"p2");
    Expr.send_as_doc ~name:"copy" ~at:p3 (Expr.doc "cat" ~at:"p2");
    Expr.eval_at p3 (Expr.query_at sel_query ~at:p1 ~args:[ Expr.doc "cat" ~at:"p2" ]);
    Expr.shared ~name:"_tmp_m" ~at:p2
      ~value:(Expr.doc "cat" ~at:"p2")
      ~body:(Expr.query_at sel_query ~at:p1 ~args:[ Expr.doc "_tmp_m" ~at:"p2" ]);
    Expr.query_app
      (Expr.Q_send { dest = p2; q = Expr.Q_val { q = sel_query; at = p1 } })
      ~args:[ Expr.doc "cat" ~at:"p2" ]
      ~at:p2;
    Expr.query_app
      (Expr.Q_service (Names.Service_ref.at_peer "resolve" ~peer:"p2"))
      ~args:[ Expr.tree_at (parse "<req/>") ~at:p1 ]
      ~at:p2;
  ]

let test_site () =
  let check e loc = Alcotest.(check bool) (Expr.to_string e) true (Expr.site e = loc) in
  check (Expr.tree_at (parse "<a/>") ~at:p1) (Names.At p1);
  check (Expr.doc "d" ~at:"p2") (Names.At p2);
  check (Expr.doc_any "d") Names.Any;
  check (Expr.send_to_peer p3 (Expr.doc "d" ~at:"p2")) (Names.At p3);
  (* Side-effecting sends return ∅ at the operand's site. *)
  check
    (Expr.send_as_doc ~name:"n" ~at:p3 (Expr.doc "d" ~at:"p2"))
    (Names.At p2);
  check
    (Expr.query_at sel_query ~at:p1 ~args:[ Expr.doc "d" ~at:"p2" ])
    (Names.At p1)

let test_peers () =
  let e =
    Expr.send_to_peer p3
      (Expr.query_at sel_query ~at:p1 ~args:[ Expr.doc "cat" ~at:"p2" ])
  in
  let ps = List.map Net.Peer_id.to_string (Expr.peers e) in
  List.iter
    (fun p -> Alcotest.(check bool) ("mentions " ^ p) true (List.mem p ps))
    [ "p1"; "p2"; "p3" ]

let test_size_subexpr () =
  let e =
    Expr.send_to_peer p3
      (Expr.query_at sel_query ~at:p1
         ~args:[ Expr.doc "cat" ~at:"p2"; Expr.tree_at (parse "<x/>") ~at:p1 ])
  in
  Alcotest.(check int) "size" 4 (Expr.size e);
  Alcotest.(check int) "children of send" 1
    (List.length (Expr.subexpressions e))

let test_equal () =
  let a = Expr.doc "d" ~at:"p1" and b = Expr.doc "d" ~at:"p1" in
  Alcotest.(check bool) "equal" true (Expr.equal a b);
  Alcotest.(check bool) "different peer" false
    (Expr.equal a (Expr.doc "d" ~at:"p2"));
  (* Literal data compares by shape, not ids. *)
  Alcotest.(check bool) "data by shape" true
    (Expr.equal
       (Expr.tree_at (parse "<a><b/></a>") ~at:p1)
       (Expr.tree_at (parse "<a><b/></a>") ~at:p1))

let test_xml_roundtrip () =
  List.iter
    (fun e ->
      let xml = Algebra.Expr_xml.to_xml_string e in
      match Algebra.Expr_xml.of_xml_string xml with
      | Ok e2 ->
          Alcotest.(check bool)
            (Printf.sprintf "roundtrip %s" (Expr.to_string e))
            true (Expr.equal e e2)
      | Error msg -> Alcotest.failf "decode %s: %s" xml msg)
    (sample_exprs ())

let test_xml_decode_errors () =
  List.iter
    (fun xml ->
      match Algebra.Expr_xml.of_xml_string xml with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "should reject %s" xml)
    [
      "<unknown/>";
      "<e-data/>" (* missing at *);
      {|<e-send kind="peer"><e-doc ref="d@p"/></e-send>|} (* missing peer attr *);
      {|<e-apply at="p"><q-val at="p">not a query</q-val><args/></e-apply>|};
      {|<e-share at="p" name="n"><value><e-doc ref="d@p"/></value></e-share>|}
      (* missing body *);
    ]

let test_byte_size_positive () =
  List.iter
    (fun e ->
      Alcotest.(check bool) "positive" true (Algebra.Expr_xml.byte_size e > 0))
    (sample_exprs ())

(* Plan sizing is arithmetic over the expression, and must be exactly
   the length of the serialization the Xml wire ships: over every
   sample, every one-step rewrite of one, each send destination kind,
   [Shared], [Sc], [Q_send] and [Q_service] (all among the samples), a
   literal forest that prints nothing (self-closing [e-data]) or only
   text, and text the writer escapes. *)
let test_byte_size_is_serialized_length () =
  let g = gen () in
  let tricky =
    query
      {|query(1) for $x in $0//item where attr($x, "k") = "a<b&\"c>" return <hit>{$x}</hit>|}
  in
  let escaped =
    Xml.Tree.element ~gen:g (Xml.Label.of_string "a")
      ~attrs:[ ("k", "x\"<&>\n\t\ry") ]
      [ txt "1 < 2 & 3 > 0\r" ]
  in
  let sizing =
    [
      Expr.data_at [] ~at:p1;
      Expr.data_at [ txt "" ] ~at:p1;
      Expr.data_at [ txt ""; txt "" ] ~at:p1;
      Expr.data_at [ txt "only text" ] ~at:p1;
      Expr.data_at [ escaped; txt "" ] ~at:p2;
      Expr.query_at tricky ~at:p1 ~args:[];
      Expr.eval_at p2
        (Expr.query_app
           (Expr.Q_send { dest = p3; q = Expr.Q_val { q = tricky; at = p1 } })
           ~args:[ Expr.doc "cat" ~at:"p2"; Expr.data_at [] ~at:p1 ]
           ~at:p3);
      Expr.sc
        (Doc.Sc.make ~provider:Names.Any ~service:"svc"
           [ []; [ txt "" ]; [ escaped ] ])
        ~at:p2;
    ]
  in
  let n = ref 0 in
  let fresh () =
    incr n;
    Printf.sprintf "_tmp_s%d" !n
  in
  let check e =
    Alcotest.(check int)
      (Expr.to_string e)
      (String.length (Algebra.Expr_xml.to_xml_string e))
      (Algebra.Expr_xml.byte_size e)
  in
  List.iter
    (fun e ->
      check e;
      List.iter
        (fun (r : Algebra.Rewrite.rewrite) -> check r.result)
        (Algebra.Rewrite.everywhere ~peers:[ p1; p2; p3 ] ~fresh e))
    (sample_exprs () @ sizing)

(* Cost model sanity. *)

let topo = mesh ~latency:10.0 ~bandwidth:100.0 [ "p1"; "p2"; "p3" ]

let env =
  Algebra.Cost.default_env ~doc_bytes:(fun _ -> 10_000) topo

let cost e = Algebra.Cost.of_expr env ~ctx:p1 e

let test_cost_local_data_free () =
  let c = cost (Expr.tree_at (parse "<a/>") ~at:p1) in
  Alcotest.(check int) "no transfer" 0 c.Algebra.Cost.bytes;
  Alcotest.(check int) "no messages" 0 c.Algebra.Cost.messages

let test_cost_remote_fetch_charges () =
  (* Applying a query at p1 to a remote document must ship the doc. *)
  let local =
    cost (Expr.query_at sel_query ~at:p1 ~args:[ Expr.doc "d" ~at:"p1" ])
  in
  let remote =
    cost (Expr.query_at sel_query ~at:p1 ~args:[ Expr.doc "d" ~at:"p2" ])
  in
  Alcotest.(check bool) "remote costs more bytes" true
    (remote.Algebra.Cost.bytes > local.Algebra.Cost.bytes);
  Alcotest.(check bool) "remote has latency" true
    (remote.Algebra.Cost.latency_ms > local.Algebra.Cost.latency_ms)

let test_cost_push_selection_cheaper () =
  let naive = Expr.query_at sel_query ~at:p1 ~args:[ Expr.doc "d" ~at:"p2" ] in
  let pushed =
    match Algebra.Rewrite.r11_push_selection naive with
    | [ r ] -> r.Algebra.Rewrite.result
    | _ -> Alcotest.fail "expected one rewrite"
  in
  let cn = cost naive and cp = cost pushed in
  Alcotest.(check bool) "pushed ships fewer bytes" true
    (cp.Algebra.Cost.bytes < cn.Algebra.Cost.bytes)

let test_cost_dominates_weighted () =
  let a = { Algebra.Cost.bytes = 10; messages = 1; latency_ms = 5.0; result_bytes = 0 } in
  let b = { Algebra.Cost.bytes = 20; messages = 2; latency_ms = 9.0; result_bytes = 0 } in
  Alcotest.(check bool) "a dominates b" true (Algebra.Cost.dominates a b);
  Alcotest.(check bool) "b not dominates a" false (Algebra.Cost.dominates b a);
  Alcotest.(check bool) "weighted orders" true
    (Algebra.Cost.weighted a < Algebra.Cost.weighted b)

let test_cost_shared_adds_latency_saves_bytes () =
  let fetch = Expr.send_to_peer p1 (Expr.doc "d" ~at:"p2") in
  let twice =
    Expr.query_at
      (query "query(2) for $x in $0, $y in $1 return <p/>")
      ~at:p1 ~args:[ fetch; fetch ]
  in
  let shared =
    match Algebra.Rewrite.r13_share ~fresh:(fun () -> "_tmp_s") twice with
    | r :: _ -> r.Algebra.Rewrite.result
    | [] -> Alcotest.fail "r13 should apply"
  in
  let ct = cost twice and cs = cost shared in
  Alcotest.(check bool) "sharing saves bytes" true
    (cs.Algebra.Cost.bytes < ct.Algebra.Cost.bytes)

let suite =
  [
    ("expression sites", `Quick, test_site);
    ("peers mentioned", `Quick, test_peers);
    ("size and subexpressions", `Quick, test_size_subexpr);
    ("structural equality", `Quick, test_equal);
    ("xml round-trips", `Quick, test_xml_roundtrip);
    ("xml decode errors", `Quick, test_xml_decode_errors);
    ("serialized sizes positive", `Quick, test_byte_size_positive);
    ("cost: local data free", `Quick, test_cost_local_data_free);
    ("cost: remote fetch charged", `Quick, test_cost_remote_fetch_charges);
    ("cost: pushed selection cheaper", `Quick, test_cost_push_selection_cheaper);
    ("cost: dominance and weighting", `Quick, test_cost_dominates_weighted);
    ("cost: rule 13 sharing", `Quick, test_cost_shared_adds_latency_saves_bytes);
    ("plan size = serialized length", `Quick,
      test_byte_size_is_serialized_length);
  ]
