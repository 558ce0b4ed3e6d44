(* Structural index: preorder interval numbering + label postings,
   with LSM-style segments absorbing new top-level trees.

   Within one segment every element has [pre] (preorder rank among the
   segment's elements) and [post] (largest rank in its subtree), so
   descendancy is interval containment and a labelled descendant step
   is a binary search in that label's postings.  A forest appended by
   [append_roots] becomes a fresh segment of new roots: an entry's
   descendants all live in its own segment. *)

type entry = { enode : Tree.t; pre : int; mutable post : int; seg : seg }

and seg = {
  labels : (Label.t, entry array) Hashtbl.t;
  mutable elems : entry array;
}

type t = {
  by_id : entry Node_id.Table.t;
  mutable base_elems : int;
  mutable appended_elems : int;
  mutable nodes : int;
  mutable bytes : int;
  lstats : (Label.t, int * int) Hashtbl.t;  (* count, subtree bytes *)
  mutable usable : bool;
}

let usable t = t.usable
let total_nodes t = t.nodes
let total_bytes t = t.bytes
let node e = e.enode
let find t id = Node_id.Table.find_opt t.by_id id

let entry_of t tree =
  match tree with
  | Tree.Text _ -> None
  | Tree.Element e -> (
      (* The entry stands for this subtree only while the tree is the
         one indexed: an id-equal copy may have different content. *)
      match find t e.id with
      | Some ent when ent.enode == tree -> Some ent
      | Some _ | None -> None)

(* One pass over [forest]: number elements, fill postings, accumulate
   label statistics.  Returns the element count. *)
let index_forest t seg forest =
  (* Per label: its postings so far, newest first. *)
  let tmp : (Label.t, entry list ref) Hashtbl.t = Hashtbl.create 16 in
  let all = ref [] in
  let counter = ref 0 in
  let rec walk tree =
    t.nodes <- t.nodes + 1;
    match tree with
    | Tree.Text s -> String.length s
    | Tree.Element e ->
        let pre = !counter in
        incr counter;
        let ent = { enode = tree; pre; post = pre; seg } in
        if Node_id.Table.mem t.by_id e.id then t.usable <- false
        else Node_id.Table.replace t.by_id e.id ent;
        (* Collected on entry, in preorder, so every postings array
           comes out sorted by [pre] without a sort. *)
        all := ent :: !all;
        (match Hashtbl.find_opt tmp e.label with
        | Some l -> l := ent :: !l
        | None -> Hashtbl.add tmp e.label (ref [ ent ]));
        let kid_bytes =
          List.fold_left (fun acc c -> acc + walk c) 0 e.children
        in
        ent.post <- !counter - 1;
        let tag = String.length (Label.to_string e.label) in
        let attr_bytes =
          List.fold_left
            (fun acc (k, v) -> acc + String.length k + String.length v + 4)
            0 e.attrs
        in
        let sub = (2 * tag) + 5 + attr_bytes + kid_bytes in
        let c, b =
          Option.value ~default:(0, 0) (Hashtbl.find_opt t.lstats e.label)
        in
        Hashtbl.replace t.lstats e.label (c + 1, b + sub);
        sub
  in
  t.bytes <- t.bytes + List.fold_left (fun acc tr -> acc + walk tr) 0 forest;
  let by_pre rev = Array.of_list (List.rev rev) in
  Hashtbl.iter
    (fun l entries -> Hashtbl.replace seg.labels l (by_pre !entries))
    tmp;
  seg.elems <- by_pre !all;
  !counter

let fresh_seg () = { labels = Hashtbl.create 16; elems = [||] }

let build_forest forest =
  let t =
    {
      by_id = Node_id.Table.create 256;
      base_elems = 0;
      appended_elems = 0;
      nodes = 0;
      bytes = 0;
      lstats = Hashtbl.create 16;
      usable = true;
    }
  in
  t.base_elems <- index_forest t (fresh_seg ()) forest;
  t

let build tree = build_forest [ tree ]

(* --- appends ---------------------------------------------------- *)

let rec forest_has_indexed_id t forest =
  List.exists
    (fun tree ->
      match tree with
      | Tree.Text _ -> false
      | Tree.Element e ->
          Node_id.Table.mem t.by_id e.id || forest_has_indexed_id t e.children)
    forest

let append_roots t forest =
  if not t.usable then false
  else if forest_has_indexed_id t forest then false
  else begin
    t.appended_elems <- t.appended_elems + index_forest t (fresh_seg ()) forest;
    t.usable
  end

let needs_compaction t = t.appended_elems >= max 1 t.base_elems

(* --- descendant enumeration ------------------------------------- *)

(* Entries of [arr] (sorted by pre) with lo < pre <= hi. *)
let slice arr lo hi =
  let n = Array.length arr in
  let rec bs l r =
    if l >= r then l
    else
      let m = (l + r) / 2 in
      if arr.(m).pre <= lo then bs (m + 1) r else bs l m
  in
  let i0 = bs 0 n in
  let rec take i acc =
    if i < n && arr.(i).pre <= hi then take (i + 1) (arr.(i) :: acc)
    else List.rev acc
  in
  take i0 []

let postings seg label =
  match label with
  | Some l -> Option.value ~default:[||] (Hashtbl.find_opt seg.labels l)
  | None -> seg.elems

let descendants ?label t c =
  ignore t;
  slice (postings c.seg label) c.pre c.post

(* --- statistics -------------------------------------------------- *)

let label_count t l =
  match Hashtbl.find_opt t.lstats l with Some (c, _) -> c | None -> 0

let label_stats t =
  Hashtbl.fold (fun l (c, b) acc -> (l, c, b) :: acc) t.lstats []
  |> List.sort (fun (a, _, _) (b, _, _) -> Label.compare a b)
