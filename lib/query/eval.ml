module Tree = Axml_xml.Tree
module Label = Axml_xml.Label

let test_matches test t =
  match (test, t) with
  | Ast.Any_elt, Tree.Element _ -> true
  | Ast.Name l, Tree.Element e -> Label.equal e.label l
  | _, Tree.Text _ -> false

(* Preorder collection with an accumulator (prepend, reverse once at
   the caller) — list append per node would be quadratic in depth. *)
let rec descendants_matching_acc test acc t =
  let acc = if test_matches test t then t :: acc else acc in
  List.fold_left (descendants_matching_acc test) acc (Tree.children t)

let step_select (step : Ast.step) nodes =
  match step.axis with
  | Ast.Child ->
      List.concat_map
        (fun n -> List.filter (test_matches step.test) (Tree.children n))
        nodes
  | Ast.Descendant ->
      List.concat_map
        (fun n ->
          List.rev
            (List.fold_left
               (descendants_matching_acc step.test)
               [] (Tree.children n)))
        nodes

let path_select path roots =
  List.fold_left (fun nodes s -> step_select s nodes) roots path

let operand_value env = function
  | Ast.Const s -> Some s
  | Ast.Number f ->
      Some
        (if Float.is_integer f then Printf.sprintf "%.0f" f
         else Printf.sprintf "%g" f)
  | Ast.Text_of v ->
      List.assoc_opt v env |> Option.map Tree.text_content
  | Ast.Attr_of (v, a) ->
      Option.bind (List.assoc_opt v env) (fun t -> Tree.attr t a)

(* A value read as a number: its trimmed text, when that parses. *)
let number s = float_of_string_opt (String.trim s)

(* Comparison follows the weak-typing convention of XPath 1.0: if both
   sides parse as numbers, compare numerically, otherwise as strings.
   The numeric parse only happens for ordering operators — [Contains]
   is a pure string operation and skips it. *)
let compare_values op a b =
  let ord () =
    match (number a, number b) with
    | Some x, Some y -> Float.compare x y
    | (Some _ | None), _ -> String.compare a b
  in
  match op with
  | Ast.Eq -> ord () = 0
  | Ast.Neq -> ord () <> 0
  | Ast.Lt -> ord () < 0
  | Ast.Le -> ord () <= 0
  | Ast.Gt -> ord () > 0
  | Ast.Ge -> ord () >= 0
  | Ast.Contains ->
      let la = String.length a and lb = String.length b in
      let rec scan i = i + lb <= la && (String.sub a i lb = b || scan (i + 1)) in
      lb = 0 || scan 0

(* The classes of [compare_values Eq]: a value that parses is its
   float, any other value its raw string.  Numbers meet by
   [Float.equal], so -0 meets 0 and every NaN meets every NaN; strings
   meet byte for byte; a number never meets a string, since a string
   equal to a parsing one would parse too.  [Hashtbl.hash] maps -0 and
   0, and all NaNs, to one hash each, so it agrees with [equal]. *)
module Eq_key = struct
  type t = Num of float | Str of string

  let of_value s = match number s with Some f -> Num f | None -> Str s

  let equal a b =
    match (a, b) with
    | Num x, Num y -> Float.equal x y
    | Str x, Str y -> String.equal x y
    | (Num _ | Str _), _ -> false

  let hash = function Num f -> Hashtbl.hash f | Str s -> Hashtbl.hash s
end

let rec holds pred env =
  match pred with
  | Ast.True -> true
  | Ast.Cmp (a, op, b) -> (
      match (operand_value env a, operand_value env b) with
      | Some va, Some vb -> compare_values op va vb
      | (Some _ | None), _ -> false)
  | Ast.Exists (v, path) -> (
      match List.assoc_opt v env with
      | None -> false
      | Some t -> path_select path [ t ] <> [])
  | Ast.And (a, b) -> holds a env && holds b env
  | Ast.Or (a, b) -> holds a env || holds b env
  | Ast.Not p -> not (holds p env)

let rec instantiate ~gen env = function
  | Ast.Text s -> [ Tree.text s ]
  | Ast.Copy_of v -> (
      match List.assoc_opt v env with
      | None -> []
      | Some t -> [ Tree.copy ~gen t ])
  | Ast.Content_of v -> (
      match List.assoc_opt v env with
      | None -> []
      | Some t -> [ Tree.text (Tree.text_content t) ])
  | Ast.Attr_content (v, a) -> (
      match Option.bind (List.assoc_opt v env) (fun t -> Tree.attr t a) with
      | None -> []
      | Some value -> [ Tree.text value ])
  | Ast.Elem { label; attrs; children } ->
      let kids = List.concat_map (instantiate ~gen env) children in
      [ Tree.element ~attrs ~gen label kids ]

(* Assign each top-level conjunct of the [where] clause to the
   earliest binding position at which all its variables are bound, so
   filters prune the enumeration as soon as possible.  Disjunctions
   and negations are single conjuncts and wait for their own variable
   sets; the residual [True] applies at the end. *)
let conjunct_schedule (q : Ast.flwr) =
  let positions =
    List.mapi (fun i (b : Ast.binding) -> (b.var, i + 1)) q.bindings
  in
  let slot conjunct =
    List.fold_left
      (fun acc v ->
        match List.assoc_opt v positions with
        | Some p -> max acc p
        | None -> acc)
      0
      (Ast.pred_vars conjunct)
  in
  let n = List.length q.bindings in
  let schedule = Array.make (n + 1) [] in
  List.iter
    (fun conjunct ->
      let s = slot conjunct in
      schedule.(s) <- conjunct :: schedule.(s))
    (Ast.conjuncts q.where);
  Array.map List.rev schedule

let eval_flwr_counted ~gen (q : Ast.flwr) (inputs : Axml_xml.Forest.t list) =
  let inputs = Array.of_list inputs in
  let schedule = conjunct_schedule q in
  let tuples = ref 0 in
  (* Enumerate binding tuples depth-first, in binding order, checking
     each conjunct as soon as its variables are available. *)
  let rec bind env position = function
    | [] -> instantiate ~gen env q.return_
    | (b : Ast.binding) :: rest ->
        let roots =
          match b.source with
          | Ast.Input i -> inputs.(i)
          | Ast.Var v -> (
              match List.assoc_opt v env with Some t -> [ t ] | None -> [])
        in
        let nodes = path_select b.path roots in
        List.concat_map
          (fun n ->
            incr tuples;
            let env = (b.var, n) :: env in
            if List.for_all (fun p -> holds p env) schedule.(position + 1) then
              bind env (position + 1) rest
            else [])
          nodes
  in
  let out =
    if List.for_all (fun p -> holds p []) schedule.(0) then
      bind [] 0 q.bindings
    else []
  in
  (out, !tuples)

let eval_flwr ~gen q inputs = fst (eval_flwr_counted ~gen q inputs)

let rec eval ~gen (q : Ast.t) inputs =
  (match Ast.check q with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Query.eval: " ^ msg));
  if List.length inputs <> Ast.arity q then
    invalid_arg
      (Printf.sprintf "Query.eval: arity mismatch (query %d, inputs %d)"
         (Ast.arity q) (List.length inputs));
  eval_checked ~gen q inputs

and eval_checked ~gen q inputs =
  match q with
  | Ast.Flwr f -> eval_flwr ~gen f inputs
  | Ast.Compose (head, subs) ->
      let intermediates =
        List.map (fun sub -> eval_checked ~gen sub inputs) subs
      in
      eval_flwr ~gen head intermediates

let eval_tree ~gen q t = eval ~gen q [ [ t ] ]

let rec eval_counted ~gen q inputs =
  match q with
  | Ast.Flwr f -> eval_flwr_counted ~gen f inputs
  | Ast.Compose (head, subs) ->
      let intermediates, counts =
        List.split (List.map (fun sub -> eval_counted ~gen sub inputs) subs)
      in
      let out, head_count = eval_flwr_counted ~gen head intermediates in
      (out, head_count + List.fold_left ( + ) 0 counts)
