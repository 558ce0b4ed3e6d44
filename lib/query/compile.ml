module Tree = Axml_xml.Tree
module Label = Axml_xml.Label
module Forest = Axml_xml.Forest
module Index = Axml_xml.Index
module Metrics = Axml_obs.Metrics
module Trace = Axml_obs.Trace

let threshold = ref 128
let set_index_threshold n = threshold := max 0 n
let index_threshold () = !threshold

(* --- compiled form ----------------------------------------------- *)

type source = Input of int | Var of int

type operand =
  | Const of string  (** Numbers are pre-rendered at compile time. *)
  | Text_of of int
  | Attr_of of int * string

type pred =
  | True
  | Cmp of operand * Ast.cmp * operand
  | Exists of int * Ast.path
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type construct =
  | Text of string
  | Copy_of of int
  | Content_of of int
  | Attr_content of int * string
  | Elem of {
      label : Label.t;
      attrs : (string * string) list;
      children : construct list;
    }

type flwr = {
  arity : int;
  nvars : int;
  bindings : (source * Ast.path) array;
  schedule : pred list array;
      (** [schedule.(k)]: conjuncts checked once the first [k]
          bindings are set — same assignment as
          [Eval.conjunct_schedule]. *)
  joins : (operand * operand) option array;
      (** [joins.(k)], for an input-sourced binding [k]: the first
          equality of [schedule.(k + 1)] between an operand reading
          only binding [k] and one reading only earlier bindings, as
          (inner, outer).  Binding [k]'s values are hashed on the
          inner operand and probed with the outer. *)
  rewalks : bool array;
      (** Per input: a descendant step walks its nodes more than once
          in one evaluation — the on-the-fly indexing rule. *)
  descends : bool array;
      (** Per input: some descendant step reads it, so an index kept
          across evaluations serves it. *)
  return_ : construct;
}

type t = Flwr of flwr | Compose of flwr * t list

(* --- compilation ------------------------------------------------- *)

let render_number f =
  if Float.is_integer f then Printf.sprintf "%.0f" f else Printf.sprintf "%g" f

let slot_of positions v =
  match List.assoc_opt v positions with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Compile: unbound variable %s" v)

let compile_operand positions = function
  | Ast.Const s -> Const s
  | Ast.Number f -> Const (render_number f)
  | Ast.Text_of v -> Text_of (slot_of positions v)
  | Ast.Attr_of (v, a) -> Attr_of (slot_of positions v, a)

let rec compile_pred positions = function
  | Ast.True -> True
  | Ast.Cmp (a, op, b) ->
      Cmp (compile_operand positions a, op, compile_operand positions b)
  | Ast.Exists (v, path) -> Exists (slot_of positions v, path)
  | Ast.And (a, b) -> And (compile_pred positions a, compile_pred positions b)
  | Ast.Or (a, b) -> Or (compile_pred positions a, compile_pred positions b)
  | Ast.Not p -> Not (compile_pred positions p)

let rec compile_construct positions = function
  | Ast.Text s -> Text s
  | Ast.Copy_of v -> Copy_of (slot_of positions v)
  | Ast.Content_of v -> Content_of (slot_of positions v)
  | Ast.Attr_content (v, a) -> Attr_content (slot_of positions v, a)
  | Ast.Elem { label; attrs; children } ->
      Elem { label; attrs; children = List.map (compile_construct positions) children }

let descents path =
  List.length (List.filter (fun (s : Ast.step) -> s.axis = Ast.Descendant) path)

let rec exists_paths = function
  | True | Cmp _ -> []
  | Exists (i, path) -> [ (i, path) ]
  | And (a, b) | Or (a, b) -> exists_paths a @ exists_paths b
  | Not p -> exists_paths p

let binding_read = function
  | Const _ -> None
  | Text_of i | Attr_of (i, _) -> Some i

let join_of position conjuncts =
  List.find_map
    (function
      | Cmp (a, Ast.Eq, b) -> (
          match (binding_read a, binding_read b) with
          | Some i, Some j when i = position && j < position -> Some (a, b)
          | Some i, Some j when j = position && i < position -> Some (b, a)
          | _ -> None)
      | _ -> None)
    conjuncts

let compile_flwr (q : Ast.flwr) =
  let positions =
    List.mapi (fun i (b : Ast.binding) -> (b.var, i)) q.bindings
  in
  let bindings =
    Array.of_list
      (List.map
         (fun (b : Ast.binding) ->
           let src =
             match b.source with
             | Ast.Input i -> Input i
             | Ast.Var v -> Var (slot_of positions v)
           in
           (src, b.path))
         q.bindings)
  in
  (* Same slotting as Eval.conjunct_schedule: a conjunct runs at the
     earliest position where all its variables are bound. *)
  let slot conjunct =
    List.fold_left
      (fun acc v ->
        match List.assoc_opt v positions with
        | Some p -> max acc (p + 1)
        | None -> acc)
      0
      (Ast.pred_vars conjunct)
  in
  let n = Array.length bindings in
  let schedule = Array.make (n + 1) [] in
  List.iter
    (fun conjunct ->
      let s = slot conjunct in
      schedule.(s) <- compile_pred positions conjunct :: schedule.(s))
    (Ast.conjuncts q.where);
  let schedule = Array.map List.rev schedule in
  let joins =
    Array.mapi
      (fun k (src, _) ->
        match src with
        | Input _ -> join_of k schedule.(k + 1)
        | Var _ -> None)
      bindings
  in
  (* The input each binding's values are drawn from. *)
  let roots = Array.make n 0 in
  Array.iteri
    (fun k (src, _) ->
      roots.(k) <- (match src with Input i -> i | Var j -> roots.(j)))
    bindings;
  let rewalks = Array.make q.arity false
  and descends = Array.make q.arity false in
  let mark k ~again =
    descends.(roots.(k)) <- true;
    if again then rewalks.(roots.(k)) <- true
  in
  (* An input binding is selected once per evaluation, and a path with
     one descendant step reaches pairwise disjoint subtrees through
     it: one walk.  A second descendant step can walk nested matches
     again, and a step from a variable, in a binding or in [where],
     runs once per earlier tuple. *)
  Array.iteri
    (fun k (src, path) ->
      let d = descents path in
      match src with
      | Input _ -> if d > 0 then mark k ~again:(d > 1)
      | Var _ -> if d > 0 then mark k ~again:true)
    bindings;
  Array.iter
    (fun conjuncts ->
      List.iter
        (fun c ->
          List.iter
            (fun (k, path) -> if descents path > 0 then mark k ~again:true)
            (exists_paths c))
        conjuncts)
    schedule;
  {
    arity = q.arity;
    nvars = n;
    bindings;
    schedule;
    joins;
    rewalks;
    descends;
    return_ = compile_construct positions q.return_;
  }

let compile_checked q =
  let rec go = function
    | Ast.Flwr f -> Flwr (compile_flwr f)
    | Ast.Compose (head, subs) -> Compose (compile_flwr head, List.map go subs)
  in
  go q

let compile q =
  (match Ast.check q with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Compile.compile: " ^ msg));
  compile_checked q

(* Compile once per service: activations of the same query hit the
   cache.  Bounded so fuzzers can't grow it without limit. *)
let memo : (Ast.t, t) Hashtbl.t = Hashtbl.create 64

let compiled q =
  match Hashtbl.find_opt memo q with
  | Some c -> c
  | None ->
      let t0 = Trace.wall_ms () in
      let c = compile q in
      if Metrics.is_on Metrics.default then
        Metrics.observe Metrics.default ~subsystem:"query" "compile_ms"
          (Trace.wall_ms () -. t0);
      if Hashtbl.length memo >= 1024 then Hashtbl.reset memo;
      Hashtbl.replace memo q c;
      c

(* --- evaluation -------------------------------------------------- *)

(* A bound value: the node, plus its index entry when the node came
   from an indexed forest — entries make descendant steps postings
   lookups; bare nodes are walked. *)
type v = { node : Tree.t; info : (Index.t * Index.entry) option }

type counters = {
  mutable hits : int;
  mutable fallbacks : int;
  mutable builds : int;
}

let test_matches test t =
  match (test, t) with
  | Ast.Any_elt, Tree.Element _ -> true
  | Ast.Name l, Tree.Element e -> Label.equal e.label l
  | _, Tree.Text _ -> false

let value_in idx tree =
  match idx with
  | None -> { node = tree; info = None }
  | Some ix -> (
      match Index.entry_of ix tree with
      | Some e -> { node = tree; info = Some (ix, e) }
      | None -> { node = tree; info = None })

(* Accumulator preorder collection — the traversal arm, used for
   unindexed nodes (and by Eval itself for the whole axis). *)
let descendants_matching_acc test t acc =
  let rec go acc t =
    let acc = if test_matches test t then t :: acc else acc in
    List.fold_left go acc (Tree.children t)
  in
  go acc t

let step_select cnt (step : Ast.step) values =
  match step.axis with
  | Ast.Child ->
      List.concat_map
        (fun v ->
          List.filter_map
            (fun c ->
              if test_matches step.test c then
                Some
                  (match v.info with
                  | Some (ix, _) -> value_in (Some ix) c
                  | None -> { node = c; info = None })
              else None)
            (Tree.children v.node))
        values
  | Ast.Descendant ->
      List.concat_map
        (fun v ->
          match v.info with
          | Some (ix, e) ->
              cnt.hits <- cnt.hits + 1;
              let label =
                match step.test with
                | Ast.Name l -> Some l
                | Ast.Any_elt -> None
              in
              List.map
                (fun en -> { node = Index.node en; info = Some (ix, en) })
                (Index.descendants ?label ix e)
          | None ->
              List.rev
                (List.fold_left
                   (fun acc c -> descendants_matching_acc step.test c acc)
                   [] (Tree.children v.node))
              |> List.map (fun node -> { node; info = None }))
        values

let path_select cnt path values =
  List.fold_left (fun vs s -> step_select cnt s vs) values path

let operand_value env = function
  | Const s -> Some s
  | Text_of i -> Some (Tree.text_content env.(i).node)
  | Attr_of (i, a) -> Tree.attr env.(i).node a

let rec holds cnt env = function
  | True -> true
  | Cmp (a, op, b) -> (
      match (operand_value env a, operand_value env b) with
      | Some va, Some vb -> Eval.compare_values op va vb
      | (Some _ | None), _ -> false)
  | Exists (i, path) -> path_select cnt path [ env.(i) ] <> []
  | And (a, b) -> holds cnt env a && holds cnt env b
  | Or (a, b) -> holds cnt env a || holds cnt env b
  | Not p -> not (holds cnt env p)

let rec instantiate ~gen env = function
  | Text s -> [ Tree.text s ]
  | Copy_of i -> [ Tree.copy ~gen env.(i).node ]
  | Content_of i -> [ Tree.text (Tree.text_content env.(i).node) ]
  | Attr_content (i, a) -> (
      match Tree.attr env.(i).node a with
      | None -> []
      | Some value -> [ Tree.text value ])
  | Elem { label; attrs; children } ->
      let kids = List.concat_map (instantiate ~gen env) children in
      [ Tree.element ~attrs ~gen label kids ]

let dummy = { node = Tree.text ""; info = None }

module Key_tbl = Hashtbl.Make (Eval.Eq_key)

(* An input-sourced binding's values, prepared once per evaluation:
   scanned whole, or hashed for an equality join. *)
type access =
  | Scan of v list
  | Probe of { table : v Key_tbl.t; count : int; outer : operand }

let eval_flwr ~gen cnt (f : flwr) (inputs : (Forest.t * Index.t option) array) =
  let tuples = ref 0 in
  let env = Array.make (max 1 f.nvars) dummy in
  let nb = Array.length f.bindings in
  (* An input-sourced binding does not depend on earlier bindings, so
     it is selected (and hashed) once, when first reached. *)
  let accesses = Array.make nb None in
  let access position i path =
    match accesses.(position) with
    | Some a -> a
    | None ->
        let forest, idx = inputs.(i) in
        let values = path_select cnt path (List.map (value_in idx) forest) in
        let a =
          match f.joins.(position) with
          | None -> Scan values
          | Some (inner, outer) ->
              let table = Key_tbl.create 64 in
              (* Added last to first: [find_all] returns the latest
                 binding first, so each bucket is in document order. *)
              List.iter
                (fun v ->
                  env.(position) <- v;
                  match operand_value env inner with
                  | Some s -> Key_tbl.add table (Eval.Eq_key.of_value s) v
                  | None -> ())
                (List.rev values);
              Probe { table; count = List.length values; outer }
        in
        accesses.(position) <- Some a;
        a
  in
  let rec bind position =
    if position = nb then instantiate ~gen env f.return_
    else begin
      let extend v =
        env.(position) <- v;
        if List.for_all (holds cnt env) f.schedule.(position + 1) then
          bind (position + 1)
        else []
      in
      let enumerate values =
        List.concat_map
          (fun v ->
            incr tuples;
            extend v)
          values
      in
      match f.bindings.(position) with
      | Var j, path -> enumerate (path_select cnt path [ env.(j) ])
      | Input i, path -> (
          match access position i path with
          | Scan values -> enumerate values
          | Probe { table; count; outer } -> (
              (* Counted as the nested loop enumerates: every value. *)
              tuples := !tuples + count;
              match operand_value env outer with
              | None -> []
              | Some s ->
                  List.concat_map extend
                    (Key_tbl.find_all table (Eval.Eq_key.of_value s))))
    end
  in
  let out =
    if List.for_all (holds cnt env) f.schedule.(0) then bind 0 else []
  in
  (out, !tuples)

(* Every index of a query input is built here, and counted: on the
   fly below, or kept by a continuous query ({!index_input}).  An input
   is worth indexing when a descendant step will read it through the
   index more than once and the forest is big enough to repay the
   build. *)
let build_index cnt wanted forest =
  if wanted && Forest.size forest >= !threshold then begin
    cnt.builds <- cnt.builds + 1;
    Some (Index.build_forest forest)
  end
  else None

let provision cnt wanted (forest, idx) =
  let idx =
    match idx with None -> build_index cnt wanted forest | Some _ -> idx
  in
  match idx with
  | Some ix when Index.usable ix -> (forest, Some ix)
  | Some _ ->
      cnt.fallbacks <- cnt.fallbacks + 1;
      (forest, None)
  | None -> (forest, None)

let provision_all cnt (f : flwr) inputs =
  Array.of_list
    (List.mapi (fun i input -> provision cnt f.rewalks.(i) input) inputs)

let rec eval_compiled ~gen cnt c (inputs : (Forest.t * Index.t option) list) =
  match c with
  | Flwr f -> eval_flwr ~gen cnt f (provision_all cnt f inputs)
  | Compose (head, subs) ->
      let intermediates, counts =
        List.split (List.map (fun s -> eval_compiled ~gen cnt s inputs) subs)
      in
      let out, head_count =
        eval_flwr ~gen cnt head
          (provision_all cnt head (List.map (fun f -> (f, None)) intermediates))
      in
      (out, head_count + List.fold_left ( + ) 0 counts)

let flush cnt =
  if Metrics.is_on Metrics.default then begin
    if cnt.hits > 0 then
      Metrics.incr Metrics.default ~by:cnt.hits ~subsystem:"query" "index_hits";
    if cnt.fallbacks > 0 then
      Metrics.incr Metrics.default ~by:cnt.fallbacks ~subsystem:"query"
        "fallback";
    if cnt.builds > 0 then
      Metrics.incr Metrics.default ~by:cnt.builds ~subsystem:"query"
        "index_builds"
  end;
  (* Per-evaluation attribution for the profiler: the ambient operator
     id stamped into this instant lets {!Axml_peer.Profiler} fold
     index behaviour onto the plan operator whose query this was. *)
  if
    cnt.hits + cnt.fallbacks + cnt.builds > 0
    && Axml_obs.Trace.sampled ()
  then
    Axml_obs.Trace.instant ~cat:"query" ~peer:"query"
      ~ts:(Axml_obs.Timeseries.now Axml_obs.Timeseries.default)
      ~args:
        [
          ("hits", string_of_int cnt.hits);
          ("fallbacks", string_of_int cnt.fallbacks);
          ("builds", string_of_int cnt.builds);
        ]
      "index"

let check_arity q inputs =
  (match Ast.check q with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Query.eval: " ^ msg));
  if List.length inputs <> Ast.arity q then
    invalid_arg
      (Printf.sprintf "Query.eval: arity mismatch (query %d, inputs %d)"
         (Ast.arity q) (List.length inputs))

let counters () = { hits = 0; fallbacks = 0; builds = 0 }

(* The raw inputs feed the first block of each composed sub-query. *)
let rec reads_input which c i =
  match c with
  | Flwr f -> (which f).(i)
  | Compose (_, subs) -> List.exists (fun s -> reads_input which s i) subs

let index_input q ~input ~read_before forest =
  let which f = if read_before then f.descends else f.rewalks in
  let cnt = counters () in
  let ix = build_index cnt (reads_input which (compiled q) input) forest in
  flush cnt;
  ix

let eval_counted ~gen q inputs =
  check_arity q inputs;
  let cnt = counters () in
  let out =
    eval_compiled ~gen cnt (compiled q) (List.map (fun f -> (f, None)) inputs)
  in
  flush cnt;
  out

let eval ~gen q inputs = fst (eval_counted ~gen q inputs)

let eval_over ~gen q inputs =
  check_arity q (List.map fst inputs);
  let cnt = counters () in
  let out, _ = eval_compiled ~gen cnt (compiled q) inputs in
  flush cnt;
  out
