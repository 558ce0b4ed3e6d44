module Label = Axml_xml.Label

type axis = Child | Descendant
type test = Name of Label.t | Any_elt
type step = { axis : axis; test : test }
type path = step list
type source = Input of int | Var of string

type operand =
  | Const of string
  | Number of float
  | Text_of of string
  | Attr_of of string * string

type cmp = Eq | Neq | Lt | Le | Gt | Ge | Contains

type pred =
  | True
  | Cmp of operand * cmp * operand
  | Exists of string * path
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type construct =
  | Elem of {
      label : Label.t;
      attrs : (string * string) list;
      children : construct list;
    }
  | Text of string
  | Copy_of of string
  | Content_of of string
  | Attr_content of string * string

type binding = { var : string; source : source; path : path }

type flwr = {
  arity : int;
  bindings : binding list;
  where : pred;
  return_ : construct;
}

type t = Flwr of flwr | Compose of flwr * t list

let child name = { axis = Child; test = Name (Label.of_string name) }
let desc name = { axis = Descendant; test = Name (Label.of_string name) }
let child_any = { axis = Child; test = Any_elt }
let desc_any = { axis = Descendant; test = Any_elt }

let flwr ?(where = True) ~arity bindings return_ =
  Flwr { arity; bindings; where; return_ }

let rec conj = function
  | [] -> True
  | [ p ] -> p
  | p :: rest -> And (p, conj rest)

let conjuncts p =
  let rec go acc = function
    | True -> acc
    | And (a, b) -> go (go acc a) b
    | p -> p :: acc
  in
  List.rev (go [] p)

let arity = function Flwr q -> q.arity | Compose (_, qs) -> (
    match qs with [] -> 0 | q :: _ -> (
      match q with Flwr f -> f.arity | Compose (f, _) -> f.arity))

let operand_vars = function
  | Const _ | Number _ -> []
  | Text_of v | Attr_of (v, _) -> [ v ]

let rec pred_vars_in_order = function
  | True -> []
  | Cmp (a, _, b) -> operand_vars a @ operand_vars b
  | Exists (v, _) -> [ v ]
  | And (a, b) | Or (a, b) -> pred_vars_in_order a @ pred_vars_in_order b
  | Not p -> pred_vars_in_order p

let dedup vs = List.fold_left (fun acc v -> if List.mem v acc then acc else acc @ [ v ]) [] vs
let pred_vars p = dedup (pred_vars_in_order p)

let rec construct_vars_acc acc = function
  | Elem { children; _ } -> List.fold_left construct_vars_acc acc children
  | Text _ -> acc
  | Copy_of v | Content_of v | Attr_content (v, _) -> v :: acc

let construct_vars c = dedup (List.rev (construct_vars_acc [] c))

let check_flwr q =
  let ( let* ) = Result.bind in
  let* bound =
    List.fold_left
      (fun acc b ->
        let* bound = acc in
        let* () =
          if List.mem b.var bound then
            Error (Printf.sprintf "variable %s bound twice" b.var)
          else Ok ()
        in
        let* () =
          match b.source with
          | Input i when i < 0 || i >= q.arity ->
              Error (Printf.sprintf "input $%d out of range (arity %d)" i q.arity)
          | Input _ -> Ok ()
          | Var v when not (List.mem v bound) ->
              Error (Printf.sprintf "variable %s used before binding" v)
          | Var _ -> Ok ()
        in
        Ok (b.var :: bound))
      (Ok []) q.bindings
  in
  let check_used context vs =
    match List.find_opt (fun v -> not (List.mem v bound)) vs with
    | Some v -> Error (Printf.sprintf "unbound variable %s in %s" v context)
    | None -> Ok ()
  in
  let* () = check_used "where clause" (pred_vars q.where) in
  check_used "return clause" (construct_vars q.return_)

let rec check = function
  | Flwr q -> check_flwr q
  | Compose (head, subs) ->
      let ( let* ) = Result.bind in
      let* () = check_flwr head in
      let* () =
        if head.arity <> List.length subs then
          Error
            (Printf.sprintf
               "composition head has arity %d but %d sub-queries are given"
               head.arity (List.length subs))
        else Ok ()
      in
      let* () =
        match subs with
        | [] -> Ok ()
        | first :: rest ->
            let a = arity first in
            if List.for_all (fun q -> arity q = a) rest then Ok ()
            else Error "sub-queries of a composition disagree on arity"
      in
      List.fold_left
        (fun acc q ->
          let* () = acc in
          check q)
        (Ok ()) subs

(* Concrete syntax, kept parseable by Parser. *)

let step_to_string { axis; test } =
  let slash = match axis with Child -> "/" | Descendant -> "//" in
  let name = match test with Name l -> Label.to_string l | Any_elt -> "*" in
  slash ^ name

let path_to_string p = String.concat "" (List.map step_to_string p)

let source_to_string = function
  | Input i -> Printf.sprintf "$%d" i
  | Var v -> "$" ^ v

let operand_to_string = function
  | Const s -> Printf.sprintf "%S" s
  | Number f ->
      if Float.is_integer f then Printf.sprintf "%.0f" f
      else Printf.sprintf "%g" f
  | Text_of v -> Printf.sprintf "text($%s)" v
  | Attr_of (v, a) -> Printf.sprintf "attr($%s, %S)" v a

let cmp_to_string = function
  | Eq -> "="
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Contains -> "contains"

let rec pred_to_string = function
  | True -> "true"
  | Cmp (a, op, b) ->
      Printf.sprintf "%s %s %s" (operand_to_string a) (cmp_to_string op)
        (operand_to_string b)
  | Exists (v, p) -> Printf.sprintf "exists($%s%s)" v (path_to_string p)
  | And (a, b) ->
      Printf.sprintf "(%s and %s)" (pred_to_string a) (pred_to_string b)
  | Or (a, b) ->
      Printf.sprintf "(%s or %s)" (pred_to_string a) (pred_to_string b)
  | Not p -> Printf.sprintf "(not %s)" (pred_to_string p)

let rec construct_to_string = function
  | Text s -> Printf.sprintf "%S" s
  | Copy_of v -> Printf.sprintf "{$%s}" v
  | Content_of v -> Printf.sprintf "{text($%s)}" v
  | Attr_content (v, a) -> Printf.sprintf "{attr($%s, %S)}" v a
  | Elem { label; attrs; children } ->
      let attrs =
        List.map (fun (k, v) -> Printf.sprintf " %s=%S" k v) attrs
        |> String.concat ""
      in
      let name = Label.to_string label in
      if children = [] then Printf.sprintf "<%s%s/>" name attrs
      else
        Printf.sprintf "<%s%s>%s</%s>" name attrs
          (String.concat " " (List.map construct_to_string children))
          name

let binding_to_string b =
  Printf.sprintf "$%s in %s%s" b.var (source_to_string b.source)
    (path_to_string b.path)

let flwr_to_string q =
  let for_clause =
    match q.bindings with
    | [] -> ""
    | bindings ->
        " for " ^ String.concat ", " (List.map binding_to_string bindings)
  in
  let where =
    match q.where with
    | True -> ""
    | p -> " where " ^ pred_to_string p
  in
  Printf.sprintf "query(%d)%s%s return %s" q.arity for_clause where
    (construct_to_string q.return_)

let rec to_string = function
  | Flwr q -> flwr_to_string q
  | Compose (head, subs) ->
      Printf.sprintf "compose { %s } (%s)" (flwr_to_string head)
        (String.concat "; " (List.map (fun q -> "{ " ^ to_string q ^ " }") subs))

let pp fmt q = Format.pp_print_string fmt (to_string q)
(* Polymorphic [=] walks both trees even when they are one: the
   planner compares an AST with itself on every candidate plan. *)
let equal (a : t) (b : t) = a == b || a = b
