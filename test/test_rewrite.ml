open Axml
open Helpers
module Expr = Algebra.Expr
module Rewrite = Algebra.Rewrite
module Names = Doc.Names

let p1 = peer "p1"
let p2 = peer "p2"
let p3 = peer "p3"
let all_peers = [ p1; p2; p3 ]
let fresh_counter () =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "_tmp_t%d" !n

let sel_query =
  query {|query(1) for $x in $0//item where attr($x, "k") = "y" return <hit>{$x}</hit>|}

let rule_names rs = List.map (fun (r : Rewrite.rewrite) -> r.rule) rs

let test_r10_delegate_shape () =
  let e = Expr.query_at sel_query ~at:p1 ~args:[ Expr.tree_at (parse "<c/>") ~at:p1 ] in
  let rs = Rewrite.r10_delegate ~peers:all_peers e in
  Alcotest.(check int) "one per other peer" 2 (List.length rs);
  List.iter
    (fun (r : Rewrite.rewrite) ->
      match r.result with
      | Expr.Send
          {
            dest = Expr.To_peer back;
            expr = Expr.Query_app { query = Expr.Q_send _; args; _ };
            _;
          } ->
          Alcotest.(check bool) "result returns home" true (Net.Peer_id.equal back p1);
          List.iter
            (function
              | Expr.Send { dest = Expr.To_peer _; _ } -> ()
              | _ -> Alcotest.fail "args must be shipped")
            args
      | _ -> Alcotest.fail "unexpected shape")
    rs

let test_r10_roundtrip () =
  let e = Expr.query_at sel_query ~at:p1 ~args:[ Expr.tree_at (parse "<c/>") ~at:p1 ] in
  match Rewrite.r10_delegate ~peers:all_peers e with
  | r :: _ -> (
      match Rewrite.r10_undelegate r.result with
      | [ back ] ->
          Alcotest.(check bool) "undelegate inverts" true
            (Expr.equal back.result e)
      | other -> Alcotest.failf "expected one inverse, got %d" (List.length other))
  | [] -> Alcotest.fail "no delegation"

let test_r10_not_applicable () =
  (* Query and application sites differ: not the rule's pattern. *)
  let e =
    Expr.query_app
      (Expr.Q_val { q = sel_query; at = p2 })
      ~args:[ Expr.tree_at (parse "<c/>") ~at:p1 ]
      ~at:p1
  in
  Alcotest.(check int) "no rewrites" 0
    (List.length (Rewrite.r10_delegate ~peers:all_peers e))

let test_r11_unfold_fold () =
  let composed =
    query
      {|compose { query(1) for $h in $0 return <w>{$h}</w> } ({ query(1) for $x in $0//a return {$x} })|}
  in
  let e = Expr.query_at composed ~at:p1 ~args:[ Expr.doc "d" ~at:"p1" ] in
  match Rewrite.r11_unfold e with
  | [ r ] -> (
      (match r.result with
      | Expr.Query_app { args = [ Expr.Query_app _ ]; _ } -> ()
      | _ -> Alcotest.fail "unfolded shape");
      match Rewrite.r11_fold r.result with
      | [ folded ] ->
          Alcotest.(check bool) "fold inverts unfold" true
            (Expr.equal folded.result e)
      | other -> Alcotest.failf "fold count %d" (List.length other))
  | other -> Alcotest.failf "unfold count %d" (List.length other)

let test_r11_push_selection_shape () =
  let e = Expr.query_at sel_query ~at:p1 ~args:[ Expr.doc "d" ~at:"p2" ] in
  match Rewrite.r11_push_selection e with
  | [ r ] -> (
      match r.result with
      | Expr.Query_app
          {
            at = outer_at;
            args =
              [ Expr.Query_app { query = Expr.Q_send { dest; _ }; at = inner_at; _ } ];
            _;
          } ->
          Alcotest.(check bool) "outer stays home" true (Net.Peer_id.equal outer_at p1);
          Alcotest.(check bool) "inner at data" true (Net.Peer_id.equal inner_at p2);
          Alcotest.(check bool) "selection shipped to data" true
            (Net.Peer_id.equal dest p2)
      | _ -> Alcotest.fail "shape")
  | other -> Alcotest.failf "rewrite count %d" (List.length other)

let test_r11_push_selection_local_data_no_rewrite () =
  let e = Expr.query_at sel_query ~at:p1 ~args:[ Expr.doc "d" ~at:"p1" ] in
  Alcotest.(check int) "local data: nothing to push" 0
    (List.length (Rewrite.r11_push_selection e))

let test_r12_both_directions () =
  let inner = Expr.doc "d" ~at:"p1" in
  let direct = Expr.send_to_peer p2 inner in
  let stops = Rewrite.r12_add_stop ~peers:all_peers direct in
  (* Relays: not the destination, not the source. *)
  Alcotest.(check (list string)) "relay candidates" [ "r12-add-stop(p3)" ]
    (rule_names stops);
  match stops with
  | [ r ] -> (
      match Rewrite.r12_skip_stop r.result with
      | [ skipped ] ->
          Alcotest.(check bool) "skip undoes add" true
            (Expr.equal skipped.result direct)
      | other -> Alcotest.failf "skip count %d" (List.length other))
  | _ -> Alcotest.fail "one relay expected"

let test_r13_share () =
  let fetch = Expr.send_to_peer p1 (Expr.doc "big" ~at:"p2") in
  let e =
    Expr.query_at
      (query "query(2) for $x in $0, $y in $1 return <p/>")
      ~at:p1 ~args:[ fetch; fetch ]
  in
  match Rewrite.r13_share ~fresh:(fresh_counter ()) e with
  | [ r ] -> (
      match r.result with
      | Expr.Shared { at; value; body; name; _ } ->
          Alcotest.(check bool) "materialized at consumer" true
            (Net.Peer_id.equal at p1);
          Alcotest.(check bool) "value is the fetched doc" true
            (Expr.equal value (Expr.doc "big" ~at:"p2"));
          Alcotest.(check bool) "tmp name" true
            (String.length (Names.Doc_name.to_string name) > 4);
          (* Both occurrences replaced by doc references. *)
          let rec count_docs e =
            (match e with
            | Expr.Doc { doc = r; _ }
              when Names.Doc_name.equal r.Names.Doc_ref.name name ->
                1
            | _ -> 0)
            + List.fold_left
                (fun acc c -> acc + count_docs c)
                0 (Expr.subexpressions e)
          in
          Alcotest.(check int) "both occurrences rewritten" 2 (count_docs body)
      | _ -> Alcotest.fail "shared shape")
  | other -> Alcotest.failf "r13 count %d" (List.length other)

let test_r13_requires_duplicate () =
  let once =
    Expr.query_at sel_query ~at:p1
      ~args:[ Expr.send_to_peer p1 (Expr.doc "d" ~at:"p2") ]
  in
  Alcotest.(check int) "no duplicate, no rule" 0
    (List.length (Rewrite.r13_share ~fresh:(fresh_counter ()) once))

let test_r14_delegate_undelegate () =
  let e = Expr.query_at sel_query ~at:p1 ~args:[ Expr.doc "d" ~at:"p1" ] in
  let rs = Rewrite.r14_delegate ~peers:all_peers e in
  Alcotest.(check int) "two delegates" 2 (List.length rs);
  List.iter
    (fun (r : Rewrite.rewrite) ->
      match Rewrite.r14_undelegate r.result with
      | [ u ] -> Alcotest.(check bool) "inverse" true (Expr.equal u.result e)
      | _ -> Alcotest.fail "undelegate")
    rs;
  (* No double wrapping. *)
  match rs with
  | r :: _ ->
      Alcotest.(check int) "no nested delegation" 0
        (List.length (Rewrite.r14_delegate ~peers:all_peers r.result))
  | [] -> ()

let test_r15_needs_forward_list () =
  let g = gen () in
  let node = Xml.Node_id.Gen.fresh g in
  let with_fw =
    Expr.sc
      (Doc.Sc.make
         ~forward:[ Names.Node_ref.make ~node ~peer:p3 ]
         ~provider:(Names.At p2) ~service:"s" [])
      ~at:p1
  in
  let without_fw =
    Expr.sc (Doc.Sc.make ~provider:(Names.At p2) ~service:"s" []) ~at:p1
  in
  Alcotest.(check int) "relocatable" 2
    (List.length (Rewrite.r15_relocate_sc ~peers:all_peers with_fw));
  Alcotest.(check int) "default forwarding pins the site" 0
    (List.length (Rewrite.r15_relocate_sc ~peers:all_peers without_fw))

let test_r16_shape () =
  let sc = Doc.Sc.make ~provider:(Names.At p2) ~service:"svc" [ [ parse "<in/>" ] ] in
  let e =
    Expr.query_at
      (query "query(1) for $x in $0 return {$x}")
      ~at:p1 ~args:[ Expr.sc sc ~at:p1 ]
  in
  match Rewrite.r16_push_query_over_sc e with
  | [ r ] -> (
      match r.result with
      | Expr.Send
          {
            dest = Expr.To_peer home;
            expr =
              Expr.Query_app
                {
                  query = Expr.Q_send { dest; _ };
                  args = [ Expr.Query_app { query = Expr.Q_service svc_ref; at = svc_at; _ } ];
                  at;
                  _;
                };
            _;
          } ->
          Alcotest.(check bool) "results return to caller" true
            (Net.Peer_id.equal home p1);
          Alcotest.(check bool) "query shipped to provider" true
            (Net.Peer_id.equal dest p2);
          Alcotest.(check bool) "evaluated at provider" true
            (Net.Peer_id.equal at p2 && Net.Peer_id.equal svc_at p2);
          Alcotest.(check string) "service referenced" "svc@p2"
            (Names.Service_ref.to_string svc_ref)
      | _ -> Alcotest.fail "shape")
  | other -> Alcotest.failf "r16 count %d" (List.length other)

let test_r16_with_forward_list () =
  let g = gen () in
  let node = Xml.Node_id.Gen.fresh g in
  let sc =
    Doc.Sc.make
      ~forward:[ Names.Node_ref.make ~node ~peer:p3 ]
      ~provider:(Names.At p2) ~service:"svc" []
  in
  let e =
    Expr.query_at
      (query "query(1) for $x in $0 return {$x}")
      ~at:p1 ~args:[ Expr.sc sc ~at:p1 ]
  in
  match Rewrite.r16_push_query_over_sc e with
  | [ { result = Expr.Send { dest = Expr.To_nodes [ target ]; _ }; _ } ] ->
      Alcotest.(check bool) "straight to forward target" true
        (Net.Peer_id.equal target.Names.Node_ref.peer p3)
  | _ -> Alcotest.fail "forward-list shape"

let test_everywhere_reaches_subterms () =
  (* The rewritable application sits under a send; `everywhere` must
     still find it. *)
  let inner = Expr.query_at sel_query ~at:p2 ~args:[ Expr.doc "d" ~at:"p2" ] in
  let e = Expr.send_to_peer p1 inner in
  let rs = Rewrite.everywhere ~peers:all_peers ~fresh:(fresh_counter ()) e in
  let applied_inside =
    List.exists
      (fun (r : Rewrite.rewrite) ->
        match r.result with
        | Expr.Send { expr = Expr.Send _; _ } -> true (* r10 on inner *)
        | _ -> false)
      rs
  in
  Alcotest.(check bool) "inner rewrites reachable" true applied_inside;
  (* All rewrites preserve the root constructor or wrap it. *)
  Alcotest.(check bool) "some rewrites" true (List.length rs > 0)

let test_at_root_aggregates () =
  let e = Expr.query_at sel_query ~at:p1 ~args:[ Expr.doc "d" ~at:"p2" ] in
  let rs = Rewrite.at_root ~peers:all_peers ~fresh:(fresh_counter ()) e in
  let names = rule_names rs in
  Alcotest.(check bool) "has r10" true
    (List.exists (fun n -> String.length n >= 3 && String.sub n 0 3 = "r10") names);
  Alcotest.(check bool) "has r11 push" true
    (List.mem "r11-push-selection" names);
  Alcotest.(check bool) "has r14" true
    (List.exists (fun n -> String.length n >= 3 && String.sub n 0 3 = "r14") names)

let suite =
  [
    ("r10 delegation shape", `Quick, test_r10_delegate_shape);
    ("r10 round-trip", `Quick, test_r10_roundtrip);
    ("r10 pattern guard", `Quick, test_r10_not_applicable);
    ("r11 unfold/fold", `Quick, test_r11_unfold_fold);
    ("r11 push-selection shape", `Quick, test_r11_push_selection_shape);
    ("r11 push-selection guard", `Quick, test_r11_push_selection_local_data_no_rewrite);
    ("r12 add/skip stops", `Quick, test_r12_both_directions);
    ("r13 sharing", `Quick, test_r13_share);
    ("r13 needs duplicates", `Quick, test_r13_requires_duplicate);
    ("r14 delegate/undelegate", `Quick, test_r14_delegate_undelegate);
    ("r15 forward-list requirement", `Quick, test_r15_needs_forward_list);
    ("r16 push over service call", `Quick, test_r16_shape);
    ("r16 forward list", `Quick, test_r16_with_forward_list);
    ("everywhere traversal", `Quick, test_everywhere_reaches_subterms);
    ("at_root aggregation", `Quick, test_at_root_aggregates);
  ]
