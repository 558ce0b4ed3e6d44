open Axml
open Helpers

let doc () =
  parse
    {|<lib><shelf><book><title>ml</title></book><book><title>db</title></book></shelf><title>root-title</title></lib>|}

let labels_of nodes =
  List.filter_map
    (fun n -> Option.map Xml.Label.to_string (Xml.Tree.label n))
    nodes

let test_path_parse_print () =
  let cases = [ "/a/b"; "//x"; "/a//b/c"; "//a//b" ] in
  List.iter
    (fun s ->
      let p = Xml.Path.of_string s in
      Alcotest.(check string) ("roundtrip " ^ s) s (Xml.Path.to_string p))
    cases;
  Alcotest.(check int) "empty path" 0 (List.length (Xml.Path.of_string "/"));
  Alcotest.(check int) "bare label" 1 (List.length (Xml.Path.of_string "a"))

let test_path_parse_errors () =
  List.iter
    (fun s ->
      match Xml.Path.of_string s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "should reject %S" s)
    [ "/a/"; "a//"; "/a b" ]

let test_child_selection () =
  let t = doc () in
  let titles = Xml.Path.select (Xml.Path.of_string "/title") t in
  Alcotest.(check int) "direct child only" 1 (List.length titles);
  Alcotest.(check string) "value" "root-title"
    (Xml.Tree.text_content (List.hd titles))

let test_descendant_selection () =
  let t = doc () in
  let titles = Xml.Path.select (Xml.Path.of_string "//title") t in
  Alcotest.(check int) "all titles" 3 (List.length titles);
  let books = Xml.Path.select (Xml.Path.of_string "//book/title") t in
  Alcotest.(check int) "book titles" 2 (List.length books)

let test_mixed_path () =
  let t = doc () in
  let r = Xml.Path.select (Xml.Path.of_string "/shelf//title") t in
  Alcotest.(check int) "shelf titles" 2 (List.length r)

let test_exists () =
  let t = doc () in
  Alcotest.(check bool) "exists" true
    (Xml.Path.exists (Xml.Path.of_string "//book") t);
  Alcotest.(check bool) "not exists" false
    (Xml.Path.exists (Xml.Path.of_string "//magazine") t)

let test_select_forest () =
  let g = gen () in
  let f = [ elt g "a" [ elt g "b" [] ]; elt g "b" [] ] in
  let direct = Xml.Path.select_forest (Xml.Path.of_string "/b") f in
  Alcotest.(check int) "forest child step hits roots" 1 (List.length direct);
  let desc = Xml.Path.select_forest (Xml.Path.of_string "//b") f in
  Alcotest.(check int) "forest descendant" 2 (List.length desc)

let test_zipper_navigation () =
  let t = doc () in
  let z = Zipper.of_tree t in
  let z = Option.get (Zipper.down z) in
  Alcotest.(check (list string)) "first child" [ "shelf" ]
    (labels_of [ Zipper.focus z ]);
  let z = Option.get (Zipper.right z) in
  Alcotest.(check (list string)) "second child" [ "title" ]
    (labels_of [ Zipper.focus z ]);
  Alcotest.(check bool) "no right of last" true (Zipper.right z = None);
  let z = Option.get (Zipper.left z) in
  let z = Option.get (Zipper.up z) in
  Alcotest.(check (list string)) "back at root" [ "lib" ]
    (labels_of [ Zipper.focus z ])

let test_zipper_edit_rebuild () =
  let t = doc () in
  let g = gen () in
  let z = Zipper.of_tree t in
  let z = Option.get (Zipper.down z) in
  let z = Zipper.append_child (elt g "book" [ txt "new" ]) z in
  let t' = Zipper.to_tree z in
  Alcotest.(check int) "book added" 3
    (List.length (Xml.Path.select (Xml.Path.of_string "//book") t'))

let test_zipper_find_id () =
  let t = doc () in
  let target =
    List.nth (Xml.Path.select (Xml.Path.of_string "//book") t) 1
  in
  let tid = Option.get (Xml.Tree.id target) in
  match Zipper.find_id tid (Zipper.of_tree t) with
  | Some z ->
      Alcotest.(check (list string)) "focused" [ "book" ]
        (labels_of [ Zipper.focus z ])
  | None -> Alcotest.fail "find_id"

let test_zipper_delete () =
  let t = doc () in
  let shelf = List.hd (Xml.Path.select (Xml.Path.of_string "/shelf") t) in
  let sid = Option.get (Xml.Tree.id shelf) in
  let z = Option.get (Zipper.find_id sid (Zipper.of_tree t)) in
  let z = Option.get (Zipper.delete z) in
  let t' = Zipper.to_tree z in
  Alcotest.(check int) "shelf gone" 0
    (List.length (Xml.Path.select (Xml.Path.of_string "/shelf") t'));
  Alcotest.(check bool) "cannot delete root" true
    (Zipper.delete (Zipper.of_tree t') = None)

let test_zipper_insert_right () =
  let t = parse "<r><a/></r>" in
  let g = gen () in
  let z = Option.get (Zipper.down (Zipper.of_tree t)) in
  let z = Option.get (Zipper.insert_right (elt g "b" []) z) in
  let t' = Zipper.to_tree z in
  Alcotest.(check (list string)) "order a,b" [ "a"; "b" ]
    (labels_of (Xml.Tree.children t'));
  Alcotest.(check bool) "no insert_right at root" true
    (Zipper.insert_right (elt g "c" []) (Zipper.of_tree t') = None)

let suite =
  [
    ("path parse/print", `Quick, test_path_parse_print);
    ("path parse errors", `Quick, test_path_parse_errors);
    ("child selection", `Quick, test_child_selection);
    ("descendant selection", `Quick, test_descendant_selection);
    ("mixed path", `Quick, test_mixed_path);
    ("exists", `Quick, test_exists);
    ("forest selection", `Quick, test_select_forest);
    ("zipper navigation", `Quick, test_zipper_navigation);
    ("zipper edit and rebuild", `Quick, test_zipper_edit_rebuild);
    ("zipper find by id", `Quick, test_zipper_find_id);
    ("zipper delete", `Quick, test_zipper_delete);
    ("zipper insert right", `Quick, test_zipper_insert_right);
  ]
