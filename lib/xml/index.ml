(* Structural index: preorder interval numbering + label postings,
   with LSM-style segments absorbing streaming appends.

   Within one segment every element has [pre] (preorder rank among the
   segment's elements) and [post] (largest rank in its subtree), so
   descendancy is interval containment and a labelled descendant step
   is a binary search in that label's postings.  An appended forest
   becomes a fresh segment attached at its insertion entry; global
   document order across segments falls out of the attachment chain:
   a segment attached at entry [a] with sequence number [q] sorts as
   the pair [(a.post, q)] — after every base node of [a]'s subtree
   (pairs [(pre, 0)] with [pre <= a.post]) and before the first node
   outside it, later attachments after earlier ones. *)

type entry = {
  mutable enode : Tree.t;
  pre : int;
  mutable post : int;
  seg : seg;
}

and attach = Base | Top of int | At of entry * int

and seg = {
  attach : attach;
  labels : (Label.t, entry array) Hashtbl.t;
  mutable elems : entry array;
  mutable kids : (int * seg) list;  (* (attach entry's pre, segment) *)
}

type t = {
  by_id : entry Node_id.Table.t;
  mutable segs : int;
  mutable next_seq : int;
  mutable base_elems : int;
  mutable appended_elems : int;
  mutable nodes : int;
  mutable bytes : int;
  lstats : (Label.t, int * int) Hashtbl.t;  (* count, subtree bytes *)
  mutable usable : bool;
}

let usable t = t.usable
let element_count t = t.base_elems + t.appended_elems
let total_nodes t = t.nodes
let total_bytes t = t.bytes
let segment_count t = t.segs
let appended_elements t = t.appended_elems
let node e = e.enode
let find t id = Node_id.Table.find_opt t.by_id id

let entry_of t tree =
  match tree with
  | Tree.Text _ -> None
  | Tree.Element e -> (
      (* The entry stands for this subtree only while the tree is the
         one indexed (append repairs spines, so pointer equality is
         the right test — an id-equal copy has different content). *)
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

let fresh_seg attach = { attach; labels = Hashtbl.create 16; elems = [||]; kids = [] }

let build_forest forest =
  let t =
    {
      by_id = Node_id.Table.create 256;
      segs = 1;
      next_seq = 1;
      base_elems = 0;
      appended_elems = 0;
      nodes = 0;
      bytes = 0;
      lstats = Hashtbl.create 16;
      usable = true;
    }
  in
  t.base_elems <- index_forest t (fresh_seg Base) forest;
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

(* Re-point entries along the rebuilt spine.  Functional inserts copy
   exactly the root-to-target path; every unchanged subtree (and the
   freshly indexed forest) is physically shared, so the walk stops at
   the first pointer that still agrees. *)
let rec repair_walk t tree =
  match tree with
  | Tree.Text _ -> ()
  | Tree.Element e -> (
      match Node_id.Table.find_opt t.by_id e.id with
      | Some ent when ent.enode != tree ->
          ent.enode <- tree;
          List.iter (repair_walk t) e.children
      | Some _ | None -> ())

(* O(spine) repair: the entry registered for [new_root]'s id still
   holds the PREVIOUS root, so walking old and new in lockstep finds
   the rebuilt path with pointer comparisons alone — a table lookup
   is paid only for the nodes actually re-pointed.  Children appended
   by the insert (the freshly indexed forest, physically shared) show
   up as a new-side suffix and need no repair.  Any positional id
   mismatch means the tree changed in a shape this diff does not
   understand; fall back to the full walk for that subtree. *)
let repair t new_root =
  let rec sync old_ new_ =
    if old_ != new_ then
      match (old_, new_) with
      | Tree.Element oe, Tree.Element ne when Node_id.equal oe.id ne.id ->
          (match Node_id.Table.find_opt t.by_id ne.id with
          | Some ent -> ent.enode <- new_
          | None -> ());
          sync_kids oe.children ne.children
      | _ -> repair_walk t new_
  and sync_kids olds news =
    match (olds, news) with
    | o :: os, n :: ns ->
        sync o n;
        sync_kids os ns
    | [], _ | _, [] -> ()
  in
  match new_root with
  | Tree.Text _ -> ()
  | Tree.Element e -> (
      match Node_id.Table.find_opt t.by_id e.id with
      | Some root_ent -> sync root_ent.enode new_root
      | None -> repair_walk t new_root)

let attach_seg t attach forest =
  let seg = fresh_seg attach in
  let n = index_forest t seg forest in
  t.appended_elems <- t.appended_elems + n;
  t.segs <- t.segs + 1;
  seg

let append t ~new_root ~under forest =
  if not t.usable then false
  else
    match Node_id.Table.find_opt t.by_id under with
    | None -> false
    | Some _ when forest_has_indexed_id t forest -> false
    | Some a ->
        let q = t.next_seq in
        t.next_seq <- t.next_seq + 1;
        let seg = attach_seg t (At (a, q)) forest in
        a.seg.kids <- (a.pre, seg) :: a.seg.kids;
        repair t new_root;
        t.usable

let append_roots t forest =
  if not t.usable then false
  else if forest_has_indexed_id t forest then false
  else begin
    let q = t.next_seq in
    t.next_seq <- t.next_seq + 1;
    ignore (attach_seg t (Top q) forest);
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

(* Every entry of [seg] and of its transitively attached segments
   (document order restored by the caller's sort). *)
let rec seg_all label seg acc =
  let acc = Array.fold_left (fun acc e -> e :: acc) acc (postings seg label) in
  List.fold_left (fun acc (_, kid) -> seg_all label kid acc) acc seg.kids

(* One key element per attachment level: base entries are [(pre,0,0)];
   a segment attached at [a] contributes [(a.post, max_int - a.pre, q)]
   — after every base node of [a]'s subtree (first component), and
   when two attachment points share a [post] (one's subtree is the
   suffix of the other's) the deeper one first (second component),
   later appends at the same point after earlier ones (third). *)
let rec key_prefix seg acc =
  match seg.attach with
  | Base -> acc
  | Top q -> (max_int, 0, q) :: acc
  | At (a, q) -> key_prefix a.seg ((a.post, max_int - a.pre, q) :: acc)

let sort_key e = key_prefix e.seg [] @ [ (e.pre, 0, 0) ]

let descendants ?label t c =
  ignore t;
  let base = slice (postings c.seg label) c.pre c.post in
  let attached =
    List.filter (fun (p, _) -> p >= c.pre && p <= c.post) c.seg.kids
  in
  match attached with
  | [] -> base
  | _ ->
      let all =
        List.fold_left (fun acc (_, seg) -> seg_all label seg acc) base attached
      in
      List.map (fun e -> (sort_key e, e)) all
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.map snd

(* --- statistics -------------------------------------------------- *)

let label_count t l =
  match Hashtbl.find_opt t.lstats l with Some (c, _) -> c | None -> 0

let label_stats t =
  Hashtbl.fold (fun l (c, b) acc -> (l, c, b) :: acc) t.lstats []
  |> List.sort (fun (a, _, _) (b, _, _) -> Label.compare a b)
