open Axml
module Cm = Schema.Content_model
module Sg = Schema_gen

let library_schema =
  Schema.Schema.of_decls
    [
      Schema.Schema.decl ~name:"lib" ~label:"lib" ~mixed:false
        ~content:(Cm.plus (Cm.ref_ "shelf")) ();
      Schema.Schema.decl ~name:"shelf" ~label:"shelf" ~mixed:false
        ~content:(Cm.star (Cm.ref_ "book")) ();
      Schema.Schema.decl ~name:"book" ~label:"book" ~mixed:false
        ~content:(Cm.seq [ Cm.ref_ "title"; Cm.opt (Cm.ref_ "year") ])
        ~attributes:[ { Schema.Schema.attr_name = "isbn"; required = true } ]
        ();
      Schema.Schema.decl ~name:"title" ~label:"title" ~mixed:true
        ~content:Cm.Epsilon ();
      Schema.Schema.decl ~name:"year" ~label:"year" ~mixed:true
        ~content:Cm.Epsilon ();
    ]

(* A recursive grammar: trees of categories. *)
let recursive_schema =
  Schema.Schema.of_decls
    [
      Schema.Schema.decl ~name:"cat" ~label:"cat" ~mixed:false
        ~content:(Cm.star (Cm.ref_ "cat"))
        ();
    ]

let impossible_schema =
  Schema.Schema.of_decls
    [
      Schema.Schema.decl ~name:"loop" ~label:"loop" ~mixed:false
        ~content:(Cm.plus (Cm.ref_ "loop"))
        ();
    ]

let seeded_gen seed = Xml.Node_id.Gen.create ~namespace:(Printf.sprintf "sg%d" seed)

let prop name ~count f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name
       (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1_000_000))
       f)

let generated_conforms seed =
  let rng = Workload.Rng.create ~seed in
  match
    Sg.tree ~schema:library_schema ~type_name:"lib" ~gen:(seeded_gen seed) ~rng ()
  with
  | None -> false (* lib is always satisfiable *)
  | Some t ->
      Schema.Validate.conforms ~schema:library_schema ~type_name:"lib" t

let recursive_generation_bounded seed =
  let rng = Workload.Rng.create ~seed in
  match
    Sg.tree ~schema:recursive_schema ~type_name:"cat" ~gen:(seeded_gen seed)
      ~rng ~max_depth:5 ()
  with
  | None -> true (* bound hit: acceptable *)
  | Some t ->
      Xml.Tree.depth t <= 5
      && Schema.Validate.conforms ~schema:recursive_schema ~type_name:"cat" t

let test_impossible_type () =
  let rng = Workload.Rng.create ~seed:1 in
  Alcotest.(check bool) "plus-of-self is unsatisfiable" true
    (Sg.tree ~schema:impossible_schema ~type_name:"loop" ~gen:(seeded_gen 1)
       ~rng ()
    = None)

let test_unknown_type () =
  let rng = Workload.Rng.create ~seed:2 in
  Alcotest.(check bool) "unknown type" true
    (Sg.tree ~schema:library_schema ~type_name:"ghost" ~gen:(seeded_gen 2) ~rng ()
    = None)

let test_any_type () =
  let rng = Workload.Rng.create ~seed:3 in
  match
    Sg.tree ~schema:library_schema ~type_name:Schema.Schema.any_type_name
      ~gen:(seeded_gen 3) ~rng ()
  with
  | Some t -> Alcotest.(check bool) "element" true (Xml.Tree.is_element t)
  | None -> Alcotest.fail "universal type is satisfiable"

let test_forest () =
  let rng = Workload.Rng.create ~seed:4 in
  match
    Sg.forest ~schema:library_schema ~type_names:[ "book"; "shelf" ]
      ~gen:(seeded_gen 4) ~rng ()
  with
  | Some [ b; s ] ->
      Alcotest.(check bool) "book" true
        (Schema.Validate.conforms ~schema:library_schema ~type_name:"book" b);
      Alcotest.(check bool) "shelf" true
        (Schema.Validate.conforms ~schema:library_schema ~type_name:"shelf" s)
  | Some _ | None -> Alcotest.fail "forest generation"

(* Typecheck soundness under fuzzing: random binding paths over the
   library labels; inferred output types accept every actual output. *)
let typecheck_sound seed =
  let rng = Workload.Rng.create ~seed in
  let labels = [ "shelf"; "book"; "title"; "year" ] in
  let random_path () =
    List.init
      (1 + Workload.Rng.int rng 2)
      (fun _ ->
        let l = Workload.Rng.pick rng labels in
        if Workload.Rng.bool rng then Query.Ast.child l else Query.Ast.desc l)
  in
  let q =
    Query.Ast.Flwr
      {
        arity = 1;
        bindings =
          [
            { Query.Ast.var = "x"; source = Query.Ast.Input 0; path = random_path () };
            { Query.Ast.var = "y"; source = Query.Ast.Var "x"; path = random_path () };
          ];
        where = Query.Ast.True;
        return_ =
          Query.Ast.Elem
            {
              label = Xml.Label.of_string "out";
              attrs = [];
              children = [ Query.Ast.Copy_of (Workload.Rng.pick rng [ "x"; "y" ]) ];
            };
      }
  in
  match Query.Typecheck.infer_output library_schema ~inputs:[ "lib" ] ~prefix:"t" q with
  | Error _ -> false
  | Ok (extended, out_types) -> (
      match
        Sg.tree ~schema:library_schema ~type_name:"lib" ~gen:(seeded_gen seed)
          ~rng ()
      with
      | None -> false
      | Some data ->
          let out = Query.Eval.eval ~gen:(seeded_gen (seed + 1)) q [ [ data ] ] in
          List.for_all
            (fun t ->
              List.exists
                (fun ty ->
                  Schema.Validate.conforms ~schema:extended ~type_name:ty t)
                out_types)
            out)

let suite =
  [
    prop "generated trees conform" ~count:80 generated_conforms;
    prop "recursive grammars bounded" ~count:60 recursive_generation_bounded;
    ("impossible type", `Quick, test_impossible_type);
    ("unknown type", `Quick, test_unknown_type);
    ("universal type", `Quick, test_any_type);
    ("forest generation", `Quick, test_forest);
    prop "typecheck soundness" ~count:80 typecheck_sound;
  ]
