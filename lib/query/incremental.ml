module Index = Axml_xml.Index
module Forest = Axml_xml.Forest

type t = {
  query : Ast.t;
  seen : Forest.t array;
  indexes : Index.t option array;
      (* Per-input structural indexes, built once a second evaluation
         reads the input (on the first read when {!Compile}'s
         on-the-fly rule would build one anyway) and grown by
         [append_roots] as trees arrive — so a long-lived continuous
         query pays O(subtree) per arrival, not O(everything seen) per
         arrival, while an input one evaluation reads once is walked,
         not indexed. *)
  reads : int array;  (* Evaluations that have read each input. *)
  draws : int array option;
      (* Per input, how many bindings draw from it; [None] for a
         composed query. *)
}

let create q =
  (match Ast.check q with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Incremental.create: " ^ msg));
  let n = max 1 (Ast.arity q) in
  let draws =
    match q with
    | Ast.Flwr f ->
        let draws = Array.make n 0 in
        List.iter
          (fun (b : Ast.binding) ->
            match b.source with
            | Ast.Input i -> draws.(i) <- draws.(i) + 1
            | Ast.Var _ -> ())
          f.bindings;
        Some draws
    | Ast.Compose _ -> None
  in
  {
    query = q;
    seen = Array.make n [];
    indexes = Array.make n None;
    reads = Array.make n 0;
    draws;
  }

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

(* Input [j] as an evaluation reads it: the trees seen so far, with
   the index kept for them — built when the on-the-fly rule asks for
   one, or when an earlier evaluation already read the input. *)
let read t j =
  t.reads.(j) <- t.reads.(j) + 1;
  (match t.indexes.(j) with
  | None ->
      t.indexes.(j) <-
        Compile.index_input t.query ~input:j ~read_before:(t.reads.(j) > 1)
          t.seen.(j)
  | Some _ -> ());
  (t.seen.(j), t.indexes.(j))

let all_inputs t = List.init (Ast.arity t.query) (read t)

(* Record the arrival: grow the seen forest and keep the input's index,
   if it has one, current.  An append the index can't absorb (or one
   that tips the appended volume past the base) drops it; the next read
   rebuilds it from scratch — the geometric compaction step, so
   maintenance stays amortized O(subtree). *)
let extend t ~input delta =
  t.seen.(input) <- t.seen.(input) @ delta;
  match t.indexes.(input) with
  | Some ix ->
      if (not (Index.append_roots ix delta)) || Index.needs_compaction ix then
        t.indexes.(input) <- None
  | None -> ()

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
  match t.draws with
  | Some draws when draws.(input) = 1 ->
      (* Every output tuple binds a tree of each input some binding
         draws from: while another such input has seen none, there is
         no new output. *)
      let waiting j n = j <> input && n > 0 && t.seen.(j) = [] in
      let out =
        if Array.exists Fun.id (Array.mapi waiting draws) then []
        else
          Compile.eval_over ~gen t.query
            (List.init (Ast.arity t.query) (fun j ->
                 if j = input then (delta, None) else read t j))
      in
      extend t ~input delta;
      out
  | Some _ | None ->
      let before = Compile.eval_over ~gen t.query (all_inputs t) in
      extend t ~input delta;
      let after = Compile.eval_over ~gen t.query (all_inputs t) in
      multiset_diff after before

let push_forest ~gen t ~input forest =
  List.concat_map (fun tree -> push ~gen t ~input tree) forest

let total_output ~gen t = Compile.eval_over ~gen t.query (all_inputs t)
