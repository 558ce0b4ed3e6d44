module Index = Axml_xml.Index
module Forest = Axml_xml.Forest

type t = {
  query : Ast.t;
  seen : Axml_xml.Forest.t array;
  indexes : Index.t option array;
      (* Cached per-input structural indexes, grown by [append_roots]
         as trees arrive — so a long-lived continuous query pays
         O(subtree) per arrival, not O(everything seen) per arrival. *)
}

let create q =
  (match Ast.check q with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Incremental.create: " ^ msg));
  let n = max 1 (Ast.arity q) in
  { query = q; seen = Array.make n []; indexes = Array.make n None }

let query t = t.query
let seen t i = t.seen.(i)

(* Multiset difference [full − old] by canonical fingerprints. *)
let multiset_diff full old =
  let tbl = Hashtbl.create 16 in
  let count t =
    let k = Axml_xml.Canonical.fingerprint t in
    Hashtbl.replace tbl k
      (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  List.iter count old;
  List.filter
    (fun t ->
      let k = Axml_xml.Canonical.fingerprint t in
      match Hashtbl.find_opt tbl k with
      | Some n when n > 0 ->
          Hashtbl.replace tbl k (n - 1);
          false
      | Some _ | None -> true)
    full

let inputs_with_indexes t =
  List.init (Ast.arity t.query) (fun j -> (t.seen.(j), t.indexes.(j)))

(* Record the arrival: grow the seen forest and keep the input's index
   current.  An append the index can't absorb (or one that tips the
   appended volume past the base) drops it; the next [extend] rebuild
   from scratch is the geometric compaction step, so maintenance stays
   amortized O(subtree). *)
let extend t ~input delta =
  t.seen.(input) <- t.seen.(input) @ delta;
  match t.indexes.(input) with
  | Some ix ->
      if (not (Index.append_roots ix delta)) || Index.needs_compaction ix then
        t.indexes.(input) <- None
  | None ->
      if Forest.size t.seen.(input) >= Compile.index_threshold () then begin
        let ix = Index.build_forest t.seen.(input) in
        t.indexes.(input) <- (if Index.usable ix then Some ix else None)
      end

(* The delta of one arriving tree.  When the query is a single FLWR
   block in which exactly one binding draws from the touched input, the
   new output tuples are exactly those whose pinned binding root lies
   in the delta — so we evaluate once with the input restricted to the
   delta.  Otherwise (several bindings on the same input, or a
   composition) we fall back to the reference semantics
   eval(after) − eval(before), a canonical multiset difference. *)
let push ~gen t ~input tree =
  if input < 0 || input >= Array.length t.seen then
    invalid_arg "Incremental.push: input out of range";
  let delta = [ tree ] in
  let single_occurrence =
    match t.query with
    | Ast.Flwr f ->
        List.length
          (List.filter
             (fun (b : Ast.binding) -> b.source = Ast.Input input)
             f.bindings)
        = 1
    | Ast.Compose _ -> false
  in
  if single_occurrence then begin
    let inputs =
      List.init (Ast.arity t.query) (fun j ->
          if j = input then (delta, None) else (t.seen.(j), t.indexes.(j)))
    in
    let out = Compile.eval_over ~gen t.query inputs in
    extend t ~input delta;
    out
  end
  else begin
    let before = Compile.eval_over ~gen t.query (inputs_with_indexes t) in
    extend t ~input delta;
    let after = Compile.eval_over ~gen t.query (inputs_with_indexes t) in
    multiset_diff after before
  end

let push_forest ~gen t ~input forest =
  List.concat_map (fun tree -> push ~gen t ~input tree) forest

let total_output ~gen t =
  Compile.eval_over ~gen t.query (inputs_with_indexes t)
