open Axml
open Helpers

let test_label_validation () =
  Alcotest.(check bool) "valid simple" true (Xml.Label.is_valid "item");
  Alcotest.(check bool) "valid with digits" true (Xml.Label.is_valid "p2p");
  Alcotest.(check bool) "valid underscore start" true (Xml.Label.is_valid "_x");
  Alcotest.(check bool) "invalid empty" false (Xml.Label.is_valid "");
  Alcotest.(check bool) "invalid digit start" false (Xml.Label.is_valid "2x");
  Alcotest.(check bool) "invalid space" false (Xml.Label.is_valid "a b");
  Alcotest.check Alcotest.(option string) "of_string_opt rejects"
    None
    (Option.map Xml.Label.to_string (Xml.Label.of_string_opt "<bad>"));
  match Xml.Label.of_string "bad name" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "of_string should raise"

let test_node_id_gen () =
  let g1 = Xml.Node_id.Gen.create ~namespace:"a" in
  let g2 = Xml.Node_id.Gen.create ~namespace:"b" in
  let a1 = Xml.Node_id.Gen.fresh g1 in
  let a2 = Xml.Node_id.Gen.fresh g1 in
  let b1 = Xml.Node_id.Gen.fresh g2 in
  Alcotest.(check bool) "distinct in stream" false (Xml.Node_id.equal a1 a2);
  Alcotest.(check bool) "distinct across namespaces" false
    (Xml.Node_id.equal a1 b1);
  let round id =
    Xml.Node_id.of_string (Xml.Node_id.to_string id)
    |> Option.map (Xml.Node_id.equal id)
  in
  Alcotest.(check (option bool)) "round-trip" (Some true) (round a1)

let test_node_id_of_string_invalid () =
  Alcotest.(check bool) "garbage" true (Xml.Node_id.of_string "nope" = None);
  Alcotest.(check bool) "negative" true (Xml.Node_id.of_string "a:-1" = None);
  Alcotest.(check bool) "empty ns" true (Xml.Node_id.of_string ":3" = None)

let test_construction_and_accessors () =
  let g = gen () in
  let t = elt g "root" [ elt g "kid" [ txt "hello" ]; txt "tail" ] in
  Alcotest.(check bool) "is_element" true (Xml.Tree.is_element t);
  Alcotest.(check int) "size" 4 (Xml.Tree.size t);
  Alcotest.(check int) "depth" 3 (Xml.Tree.depth t);
  Alcotest.(check string) "text_content" "hellotail"
    (Xml.Tree.text_content t);
  Alcotest.(check int) "children count" 2 (List.length (Xml.Tree.children t));
  Alcotest.(check (option string)) "label" (Some "root")
    (Option.map Xml.Label.to_string (Xml.Tree.label t))

let test_attrs () =
  let g = gen () in
  let t = elt ~attrs:[ ("id", "7"); ("cat", "x") ] g "item" [] in
  Alcotest.(check (option string)) "attr id" (Some "7") (Xml.Tree.attr t "id");
  Alcotest.(check (option string)) "attr missing" None (Xml.Tree.attr t "nope")

let test_find_and_parent () =
  let g = gen () in
  let inner = elt g "needle" [] in
  let inner_id = Option.get (Xml.Tree.id inner) in
  let t = elt g "root" [ elt g "mid" [ inner ] ] in
  (match Xml.Tree.find_by_id inner_id t with
  | Some e -> Alcotest.(check string) "found" "needle" (Xml.Label.to_string e.label)
  | None -> Alcotest.fail "find_by_id");
  (match Xml.Tree.parent_of inner_id t with
  | Some e -> Alcotest.(check string) "parent" "mid" (Xml.Label.to_string e.label)
  | None -> Alcotest.fail "parent_of");
  Alcotest.(check bool) "root has no parent" true
    (Xml.Tree.parent_of (Option.get (Xml.Tree.id t)) t = None)

let test_insert_children () =
  let g = gen () in
  let target = elt g "target" [] in
  let tid = Option.get (Xml.Tree.id target) in
  let t = elt g "root" [ target ] in
  match Xml.Tree.insert_children ~under:tid [ txt "new" ] t with
  | None -> Alcotest.fail "insert_children"
  | Some t' ->
      Alcotest.(check string) "inserted" "new" (Xml.Tree.text_content t');
      (* Original tree untouched (persistence). *)
      Alcotest.(check string) "original" "" (Xml.Tree.text_content t)

let test_insert_siblings () =
  let g = gen () in
  let sc = elt g "sc" [] in
  let sc_id = Option.get (Xml.Tree.id sc) in
  let t = elt g "root" [ txt "before"; sc; txt "after" ] in
  match Xml.Tree.insert_siblings ~of_:sc_id [ elt g "result" [] ] t with
  | None -> Alcotest.fail "insert_siblings"
  | Some t' ->
      let labels =
        List.filter_map
          (fun c -> Option.map Xml.Label.to_string (Xml.Tree.label c))
          (Xml.Tree.children t')
      in
      Alcotest.(check (list string)) "sibling order" [ "sc"; "result" ] labels;
      (* Result must follow the sc node immediately. *)
      (match Xml.Tree.children t' with
      | [ _; a; b; _ ] ->
          Alcotest.(check (option string)) "sc first" (Some "sc")
            (Option.map Xml.Label.to_string (Xml.Tree.label a));
          Alcotest.(check (option string)) "result second" (Some "result")
            (Option.map Xml.Label.to_string (Xml.Tree.label b))
      | _ -> Alcotest.fail "expected 4 children")

let test_insert_siblings_of_root_fails () =
  let g = gen () in
  let t = elt g "root" [] in
  Alcotest.(check bool) "no parent for root" true
    (Xml.Tree.insert_siblings ~of_:(Option.get (Xml.Tree.id t)) [ txt "x" ] t
    = None)

let test_remove_node () =
  let g = gen () in
  let victim = elt g "victim" [ txt "payload" ] in
  let vid = Option.get (Xml.Tree.id victim) in
  let t = elt g "root" [ victim; elt g "keep" [] ] in
  match Xml.Tree.remove_node vid t with
  | None -> Alcotest.fail "remove_node"
  | Some t' ->
      Alcotest.(check int) "one child left" 1
        (List.length (Xml.Tree.children t'));
      Alcotest.(check bool) "victim gone" false (Xml.Tree.mem_id vid t')

let test_update_node () =
  let g = gen () in
  let target = elt g "x" [] in
  let tid = Option.get (Xml.Tree.id target) in
  let t = elt g "root" [ target ] in
  (match
     Xml.Tree.update_node tid
       (fun e -> { e with attrs = [ ("touched", "yes") ] })
       t
   with
  | Some t' -> (
      match Xml.Tree.find_by_id tid t' with
      | Some e -> Alcotest.(check bool) "attr set" true (e.attrs = [ ("touched", "yes") ])
      | None -> Alcotest.fail "node lost")
  | None -> Alcotest.fail "update_node");
  let missing =
    Xml.Node_id.Gen.fresh (Xml.Node_id.Gen.create ~namespace:"elsewhere")
  in
  Alcotest.(check bool) "missing id" true (Xml.Tree.update_node missing Fun.id t = None)

let test_copy_fresh_ids () =
  let g = gen () in
  let t = elt g "root" [ elt g "kid" [] ] in
  let g2 = Xml.Node_id.Gen.create ~namespace:"other" in
  let c = Xml.Tree.copy ~gen:g2 t in
  Alcotest.(check bool) "same shape" true (Xml.Tree.equal_shape t c);
  Alcotest.(check bool) "different ids" false (Xml.Tree.equal_strict t c);
  let ids t =
    List.map (fun (e : Xml.Tree.element) -> e.id) (Xml.Tree.elements t)
  in
  List.iter
    (fun id ->
      Alcotest.(check bool) "no id reuse" false
        (List.exists (Xml.Node_id.equal id) (ids t)))
    (ids c)

let test_fold_order () =
  let g = gen () in
  let t = elt g "a" [ elt g "b" [ txt "1" ]; elt g "c" [] ] in
  let labels =
    List.rev
      (Xml.Tree.fold
         (fun acc n ->
           match Xml.Tree.label n with
           | Some l -> Xml.Label.to_string l :: acc
           | None -> acc)
         [] t)
  in
  Alcotest.(check (list string)) "pre-order" [ "a"; "b"; "c" ] labels

let test_byte_size_monotone () =
  let g = gen () in
  let small = elt g "a" [ txt "x" ] in
  let big = elt g "a" [ txt "x"; elt g "b" [ txt (String.make 100 'y') ] ] in
  Alcotest.(check bool) "bigger tree, more bytes" true
    (Xml.Tree.byte_size big > Xml.Tree.byte_size small)

let test_forest_ops () =
  let g = gen () in
  let f = [ elt g "a" []; txt "t"; elt g "b" [ txt "x" ] ] in
  Alcotest.(check int) "size" 4 (Xml.Forest.size f);
  Alcotest.(check int) "elements" 2 (List.length (Xml.Forest.elements f));
  let c = Xml.Forest.copy ~gen:(gen ()) f in
  Alcotest.(check bool) "copy equal shape" true (List.equal Xml.Tree.equal_shape f c)

let suite =
  [
    ("label validation", `Quick, test_label_validation);
    ("node id generation", `Quick, test_node_id_gen);
    ("node id parse errors", `Quick, test_node_id_of_string_invalid);
    ("construction and accessors", `Quick, test_construction_and_accessors);
    ("attributes", `Quick, test_attrs);
    ("find and parent", `Quick, test_find_and_parent);
    ("insert children", `Quick, test_insert_children);
    ("insert siblings after sc", `Quick, test_insert_siblings);
    ("insert siblings of root fails", `Quick, test_insert_siblings_of_root_fails);
    ("remove node", `Quick, test_remove_node);
    ("update node", `Quick, test_update_node);
    ("copy mints fresh ids", `Quick, test_copy_fresh_ids);
    ("fold is pre-order", `Quick, test_fold_order);
    ("byte size monotone", `Quick, test_byte_size_monotone);
    ("forest operations", `Quick, test_forest_ops);
  ]
