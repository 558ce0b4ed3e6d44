(* Engine equivalence: the compiled/indexed fast path must be
   indistinguishable from the seed interpreter — same results, same
   order (byte-identical serialization), same tuple counts — also
   when a continuous query's input index grows with its stream.  All
   properties are seed-parameterized (see test_props.ml). *)

open Axml
module Rng = Workload.Rng
module Xml_gen = Workload.Xml_gen
module Query_gen = Workload.Query_gen

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1_000_000)

let qtest ?(count = 80) name prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name seed_arb prop)

let fresh_gen =
  let n = ref 0 in
  fun () ->
    incr n;
    Xml.Node_id.Gen.create ~namespace:(Printf.sprintf "engine%d" !n)

let with_threshold n f =
  let old = Query.Compile.index_threshold () in
  Query.Compile.set_index_threshold n;
  Fun.protect ~finally:(fun () -> Query.Compile.set_index_threshold old) f

let bytes_of = Xml.Serializer.forest_to_string

let random_query ~rng ~arity =
  let config = { Query_gen.default_config with Query_gen.arity } in
  if arity = 1 && Rng.bool rng then Query_gen.random_composed ~rng config
  else Query_gen.random_flwr ~rng config

(* The compiled path and the interpreter on the same inputs:
   byte-identical output, identical tuple count.  Forced indexing
   indexes every input the on-the-fly rule selects; [~prebuilt] also
   evaluates with an index of every input passed to [eval_over], so
   input selections the rule leaves to traversal are served from
   postings too. *)
let engines_agree ~threshold ~prebuilt seed =
  let rng = Rng.create ~seed in
  let arity = 1 + Rng.int rng 2 in
  let q = random_query ~rng ~arity in
  let data_rng = Rng.create ~seed:(seed * 5) in
  let inputs =
    List.init arity (fun _ ->
        Xml_gen.random_forest ~gen:(fresh_gen ()) ~rng:data_rng
          ~trees:(1 + Rng.int rng 3) ())
  in
  with_threshold threshold (fun () ->
      let naive, n_count = Query.Eval.eval_counted ~gen:(fresh_gen ()) q inputs in
      let indexed, i_count =
        Query.Compile.eval_counted ~gen:(fresh_gen ()) q inputs
      in
      let over_prebuilt () =
        Query.Compile.eval_over ~gen:(fresh_gen ()) q
          (List.map (fun f -> (f, Some (Xml.Index.build_forest f))) inputs)
      in
      bytes_of naive = bytes_of indexed
      && n_count = i_count
      && ((not prebuilt) || bytes_of naive = bytes_of (over_prebuilt ())))

let engines_agree_forced seed = engines_agree ~threshold:0 ~prebuilt:true seed

let engines_agree_default seed =
  engines_agree ~threshold:128 ~prebuilt:false seed

(* --- the on-the-fly indexing rule ---------------------------------- *)

(* An input is indexed on the fly only when a descendant step would
   walk it more than once in one evaluation: a second descendant step
   in an input binding's path (over nested [a]s), a descendant step
   from a variable, in a binding or in [where].  An input binding
   with one descendant step walks its input once and builds nothing.
   A walk the rule chooses is not a fallback: only an index that was
   built but cannot be used (duplicate ids, here the same tree twice)
   counts one.  Results stay the interpreter's in every case. *)
let test_index_rule () =
  let g = fresh_gen () in
  let nested =
    Xml.Parser.parse_exn ~gen:g
      "<r><a><b>1</b><a><b>2</b><a><b>3</b></a></a></a><a><b>4</b></a></r>"
  in
  let other = Xml.Parser.parse_exn ~gen:g "<s><c>1</c><c>4</c></s>" in
  let counter name =
    Obs.Metrics.counter_value Obs.Metrics.default ~subsystem:"query" name
  in
  Obs.Metrics.set_enabled Obs.Metrics.default true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled Obs.Metrics.default false;
      Obs.Metrics.reset Obs.Metrics.default)
    (fun () ->
      with_threshold 0 (fun () ->
          List.iter
            (fun (text, inputs, want_builds, want_fallbacks) ->
              let q = Query.Parser.parse_exn text in
              Obs.Metrics.reset Obs.Metrics.default;
              let out = Query.Compile.eval ~gen:(fresh_gen ()) q inputs in
              Alcotest.(check int) (text ^ ": builds") want_builds
                (counter "index_builds");
              Alcotest.(check int) (text ^ ": fallbacks") want_fallbacks
                (counter "fallback");
              if want_builds > want_fallbacks then
                Alcotest.(check bool) (text ^ ": postings served") true
                  (counter "index_hits" > 0);
              Alcotest.(check string) (text ^ ": = Eval")
                (bytes_of (Query.Eval.eval ~gen:(fresh_gen ()) q inputs))
                (bytes_of out))
            [
              ("query(1) for $x in $0//a return <o>{text($x)}</o>",
                [ [ nested ] ], 0, 0);
              ("query(1) for $x in $0/a//b return <o>{text($x)}</o>",
                [ [ nested ] ], 0, 0);
              ("query(1) for $x in $0//a//b return <o>{text($x)}</o>",
                [ [ nested ] ], 1, 0);
              ("query(1) for $x in $0//a, $y in $x//b return <o>{text($y)}</o>",
                [ [ nested ] ], 1, 0);
              ("query(1) for $x in $0//a where exists($x//a) \
                return <o>{text($x)}</o>",
                [ [ nested ] ], 1, 0);
              ("query(2) for $x in $0//a, $y in $x//b, $z in $1//c \
                where text($y) = text($z) return <o>{text($z)}</o>",
                [ [ nested ]; [ other ] ], 1, 0);
              ("query(1) for $x in $0//a//b return <o>{text($x)}</o>",
                [ [ nested; nested ] ], 1, 1);
            ]))

(* The compiled path raises exactly the interpreter's errors. *)
let errors_agree seed =
  let bad_queries =
    [
      (* unbound variable in where *)
      Query.Ast.flwr ~arity:1
        ~where:(Query.Ast.Exists ("ghost", []))
        [ { Query.Ast.var = "x"; source = Query.Ast.Input 0; path = [] } ]
        (Query.Ast.Copy_of "x");
      (* variable bound twice *)
      Query.Ast.flwr ~arity:1
        [
          { Query.Ast.var = "x"; source = Query.Ast.Input 0; path = [] };
          { Query.Ast.var = "x"; source = Query.Ast.Input 0; path = [] };
        ]
        (Query.Ast.Copy_of "x");
    ]
  in
  let arity_mismatch =
    Query.Ast.flwr ~arity:2
      [ { Query.Ast.var = "x"; source = Query.Ast.Input 0; path = [] } ]
      (Query.Ast.Copy_of "x")
  in
  let message eval q inputs =
    match eval ~gen:(fresh_gen ()) q inputs with
    | _ -> None
    | exception Invalid_argument m -> Some m
  in
  ignore seed;
  List.for_all
    (fun (q, inputs) ->
      let a = message Query.Eval.eval q inputs in
      let b = message Query.Compile.eval q inputs in
      a <> None && a = b)
    ((arity_mismatch, [ [] ])
    :: List.map (fun q -> (q, [ [] ])) bad_queries)

(* --- hashed equality joins ----------------------------------------- *)

(* Keys that meet only as numbers ("1", "1.0", " 1" and "1e0"; "1_0"
   and "10"; "0x10" and "16"; "-0" and "0"; "nan" and "-nan") beside
   keys that meet only as strings; [None] leaves the attribute out. *)
let key_pool =
  [
    Some "1"; Some "1.0"; Some " 1"; Some "1e0"; Some "1_0"; Some "10";
    Some "0x10"; Some "16"; Some "-0"; Some "0"; Some "nan"; Some "-nan";
    Some "inf"; Some "abc"; Some ""; None;
  ]

(* <r><v i k t>KEY<w/></v>...</r>: [k] and the text both carry the key,
   [t] feeds a second conjunct, [w] a variable-sourced binding. *)
let keyed_forest ~rng =
  let g = fresh_gen () in
  let label = Xml.Label.of_string in
  let v i =
    let key = Rng.pick rng key_pool in
    let attrs =
      [ ("i", string_of_int i); ("t", Rng.pick rng [ "x"; "y" ]) ]
      @ Option.fold ~none:[] ~some:(fun k -> [ ("k", k) ]) key
    in
    Xml.Tree.element ~gen:g ~attrs (label "v")
      [
        Xml.Tree.text (Option.value ~default:"" key);
        Xml.Tree.element ~gen:g (label "w") [];
      ]
  in
  [ Xml.Tree.element ~gen:g (label "r") (List.init (1 + Rng.int rng 10) v) ]

(* Two-input equality joins, the shape Compile hashes: either operand
   order, attr and text() operands, with and without a second
   conjunct, and with a variable-sourced binding after the joined one.
   Results, order and tuple counts must be the interpreter's. *)
let hashed_join_agrees seed =
  let rng = Rng.create ~seed in
  let side v =
    Rng.pick rng [ Printf.sprintf {|attr($%s, "k")|} v; "text($" ^ v ^ ")" ]
  in
  let a = side "a" and b = side "b" in
  let join = if Rng.bool rng then a ^ " = " ^ b else b ^ " = " ^ a in
  let conjuncts =
    join
    :: Rng.pick rng
         [
           []; [ {|attr($b, "t") = "x"|} ]; [ {|attr($a, "t") != attr($b, "t")|} ];
         ]
  in
  let var = Rng.bool rng in
  let q =
    Query.Parser.parse_exn
      (Printf.sprintf
         "query(2) for $a in $0//v, $b in $1//v%s where %s \
          return <p>{$a}{$b}%s</p>"
         (if var then ", $c in $b/w" else "")
         (String.concat " and " (Rng.shuffle rng conjuncts))
         (if var then "{$c}" else ""))
  in
  let inputs = [ keyed_forest ~rng; keyed_forest ~rng ] in
  let naive, n_count = Query.Eval.eval_counted ~gen:(fresh_gen ()) q inputs in
  let hashed, h_count =
    Query.Compile.eval_counted ~gen:(fresh_gen ()) q inputs
  in
  bytes_of naive = bytes_of hashed && n_count = h_count

(* --- input indexes --------------------------------------------------- *)

let elements_of tree =
  let rec go acc t =
    match t with
    | Xml.Tree.Text _ -> acc
    | Xml.Tree.Element e -> List.fold_left go (e :: acc) e.children
  in
  List.rev (go [] tree)

(* Incremental streaming with forced indexing: deltas still
   concatenate to the batch answer, and the cached input index keeps
   the same results as a from-scratch naive evaluation. *)
let incremental_indexed_equals_naive seed =
  let rng = Rng.create ~seed in
  let q = Query_gen.random_flwr ~rng Query_gen.default_config in
  let data_rng = Rng.create ~seed:(seed * 11) in
  let stream =
    Xml_gen.random_forest ~gen:(fresh_gen ()) ~rng:data_rng ~trees:6 ()
  in
  with_threshold 0 (fun () ->
      let g = fresh_gen () in
      let state = Query.Incremental.create q in
      let deltas =
        List.concat_map
          (fun t -> Query.Incremental.push ~gen:g state ~input:0 t)
          stream
      in
      let total = Query.Incremental.total_output ~gen:g state in
      let naive = Query.Eval.eval ~gen:(fresh_gen ()) q [ stream ] in
      Xml.Canonical.equal_forest deltas total
      && bytes_of total = bytes_of naive)

(* Two inputs: an arity-2 query under forced indexing receives 1–4
   trees per input in a random interleaving, so some pushes come
   before the other input has a tree (those wait without evaluating)
   and the inputs' indexes are built lazily, on a later push's read,
   then grown by appends.  The deltas still concatenate to the total,
   which equals the interpreter's batch answer byte for byte.  Queries
   draw from both inputs, over a two-label alphabet the trees share,
   so about a third of the cases have output. *)
let incremental_two_inputs_equals_naive seed =
  let rng = Rng.create ~seed in
  let labels = [ "a"; "b" ] in
  let config =
    {
      Query_gen.default_config with
      Query_gen.arity = 2;
      labels;
      max_path_len = 2;
      max_preds = 1;
    }
  in
  let draws_both = function
    | Query.Ast.Flwr f ->
        List.for_all
          (fun i ->
            List.exists
              (fun (b : Query.Ast.binding) -> b.source = Query.Ast.Input i)
              f.bindings)
          [ 0; 1 ]
    | Query.Ast.Compose _ -> false
  in
  let rec draw () =
    let q = Query_gen.random_flwr ~rng config in
    if draws_both q then q else draw ()
  in
  let q = draw () in
  let data_rng = Rng.create ~seed:(seed * 13) in
  let shape = { Xml_gen.default_shape with Xml_gen.labels } in
  let streams =
    Array.init 2 (fun _ ->
        Xml_gen.random_forest ~shape ~gen:(fresh_gen ()) ~rng:data_rng
          ~trees:(1 + Rng.int rng 4) ())
  in
  (* A random merge of the two streams, each in its own order. *)
  let order =
    Rng.shuffle rng
      (List.concat_map (fun i -> List.map (fun _ -> i) streams.(i)) [ 0; 1 ])
  in
  let next = Array.copy streams in
  with_threshold 0 (fun () ->
      let g = fresh_gen () in
      let state = Query.Incremental.create q in
      let deltas =
        List.concat_map
          (fun i ->
            let t = List.hd next.(i) in
            next.(i) <- List.tl next.(i);
            Query.Incremental.push ~gen:g state ~input:i t)
          order
      in
      let total = Query.Incremental.total_output ~gen:g state in
      let naive =
        Query.Eval.eval ~gen:(fresh_gen ()) q (Array.to_list streams)
      in
      Xml.Canonical.equal_forest deltas total
      && bytes_of total = bytes_of naive)

(* --- planner statistics -------------------------------------------- *)

let stats_equal a b =
  let module S = Query.Selectivity.Stats in
  S.labels a = S.labels b
  && S.total_nodes a = S.total_nodes b
  && S.total_bytes a = S.total_bytes b

(* Random forests, attributes included: one-pass statistics equal those
   an index build accumulates — every label's count and subtree bytes,
   the node and byte totals. *)
let stats_one_pass_equals_index seed =
  let rng = Rng.create ~seed in
  let g = fresh_gen () in
  let forest =
    Xml_gen.random_forest ~gen:g ~rng ~trees:(1 + Rng.int rng 3) ()
    @
    if Rng.bool rng then
      [ Xml_gen.catalog ~gen:g ~rng ~items:(Rng.int rng 5) ~selectivity:0.5 () ]
    else []
  in
  let module S = Query.Selectivity.Stats in
  stats_equal (S.of_forest forest) (S.of_index (Xml.Index.build_forest forest))
  && S.total_bytes (S.of_forest forest) = Xml.Forest.byte_size forest

(* The store keeps each document's statistics until that document
   changes: after every random insert, update, root rewrite and
   removal, [stats_of] equals the statistics of an index built afresh
   over the current root ([None] while the document is gone). *)
let store_stats_follow_mutations seed =
  let rng = Rng.create ~seed in
  let g = fresh_gen () in
  let store = Doc.Store.create () in
  let root () =
    Xml.Tree.element ~gen:g
      (Xml.Label.of_string "root")
      [ Xml_gen.random_tree ~gen:g ~rng () ]
  in
  Doc.Store.add store (Doc.Document.make ~name:"d" (root ()));
  let name = Doc.Names.Doc_name.of_string "d" in
  let current () =
    Option.map
      (fun doc ->
        Query.Selectivity.Stats.of_index
          (Xml.Index.build (Doc.Document.root doc)))
      (Doc.Store.peek store name)
  in
  let agrees () =
    match (Doc.Store.stats_of store name, current ()) with
    | Some a, Some b -> stats_equal a b
    | None, None -> true
    | Some _, None | None, Some _ -> false
  in
  let ok = ref (agrees ()) in
  for _ = 1 to 1 + Rng.int rng 6 do
    (match Rng.int rng 4 with
    | 0 | 1 ->
        let doc = Option.get (Doc.Store.peek store name) in
        let targets = elements_of (Doc.Document.root doc) in
        let target = (Rng.pick rng targets).Xml.Tree.id in
        let forest = Xml_gen.random_forest ~gen:g ~rng ~trees:1 () in
        if Doc.Store.insert_under store name ~node:target forest = None then
          ok := false
    | 2 -> Doc.Store.update store (Doc.Document.make ~name:"d" (root ()))
    | _ ->
        ignore
          (Doc.Store.update_root store name (fun r ->
               Xml.Tree.element ~gen:g (Xml.Label.of_string "wrap") [ r ]))
    );
    if not (agrees ()) then ok := false
  done;
  Doc.Store.remove store name;
  let gone = agrees () in
  Doc.Store.add store (Doc.Document.make ~name:"d" (root ()));
  !ok && gone && agrees ()

let suite =
  [
    qtest ~count:200 "indexed ≡ naive (forced indexing)" engines_agree_forced;
    qtest ~count:120 "indexed ≡ naive (default threshold)"
      engines_agree_default;
    qtest ~count:1 "error messages agree" errors_agree;
    qtest ~count:300 "hashed equality joins ≡ naive" hashed_join_agrees;
    qtest ~count:80 "incremental indexed ≡ naive batch"
      incremental_indexed_equals_naive;
    qtest ~count:150 "incremental, two inputs interleaved ≡ naive batch"
      incremental_two_inputs_equals_naive;
    ("on-the-fly index only for re-walked inputs", `Quick, test_index_rule);
    qtest ~count:200 "one-pass statistics ≡ index statistics"
      stats_one_pass_equals_index;
    qtest ~count:60 "store statistics follow every mutation"
      store_stats_follow_mutations;
  ]
