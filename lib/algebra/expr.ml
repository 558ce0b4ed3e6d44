module Peer_id = Axml_net.Peer_id
module Names = Axml_doc.Names
module Tree = Axml_xml.Tree
module Forest = Axml_xml.Forest

module Fingerprint = struct
  type t = { hash : int; size : int; depth : int }

  let equal a b = a.hash = b.hash && a.size = b.size && a.depth = b.depth

  let compare a b =
    match Int.compare a.hash b.hash with
    | 0 -> (
        match Int.compare a.size b.size with
        | 0 -> Int.compare a.depth b.depth
        | c -> c)
    | c -> c

  let pp fmt f = Format.fprintf fmt "#%x[n=%d,d=%d]" f.hash f.size f.depth
end

type dest =
  | To_peer of Peer_id.t
  | To_nodes of Names.Node_ref.t list
  | To_doc of Names.Doc_name.t * Peer_id.t

type query_expr =
  | Q_val of { q : Axml_query.Ast.t; at : Peer_id.t }
  | Q_service of Names.Service_ref.t
  | Q_send of { dest : Peer_id.t; q : query_expr }

(* A node's summaries, each filled the first time it is asked for.
   Nodes are immutable and only the constructors below make them, each
   with an empty memo, so a filled slot describes its node for good and
   a rebuilt node starts empty. *)
type memo = { mutable fp : Fingerprint.t; mutable bytes : int }

type t =
  | Data_at of { forest : Forest.t; at : Peer_id.t; memo : memo }
  | Doc of { doc : Names.Doc_ref.t; memo : memo }
  | Query_app of {
      query : query_expr;
      args : t list;
      at : Peer_id.t;
      memo : memo;
    }
  | Sc of { sc : Axml_doc.Sc.t; at : Peer_id.t; memo : memo }
  | Send of { dest : dest; expr : t; memo : memo }
  | Eval_at of { at : Peer_id.t; expr : t; memo : memo }
  | Shared of {
      name : Names.Doc_name.t;
      at : Peer_id.t;
      value : t;
      body : t;
      memo : memo;
    }

(* The empty fingerprint slot, recognized physically: real hashes are
   non-negative. *)
let unset : Fingerprint.t = { hash = -1; size = 0; depth = 0 }
let empty () = { fp = unset; bytes = -1 }
let data_at forest ~at = Data_at { forest; at; memo = empty () }
let tree_at tree ~at = data_at [ tree ] ~at
let doc_ref doc = Doc { doc; memo = empty () }
let doc name ~at = doc_ref (Names.Doc_ref.at_peer name ~peer:at)
let doc_any name = doc_ref (Names.Doc_ref.any name)
let query_app query ~args ~at = Query_app { query; args; at; memo = empty () }
let query_at q ~at ~args = query_app (Q_val { q; at }) ~args ~at
let send dest expr = Send { dest; expr; memo = empty () }
let send_to_peer p expr = send (To_peer p) expr
let send_to_nodes targets expr = send (To_nodes targets) expr

let send_as_doc ~name ~at expr =
  send (To_doc (Names.Doc_name.of_string name, at)) expr

let eval_at at expr = Eval_at { at; expr; memo = empty () }
let sc s ~at = Sc { sc = s; at; memo = empty () }

let shared_named name ~at ~value ~body =
  Shared { name; at; value; body; memo = empty () }

let shared ~name ~at ~value ~body =
  shared_named (Names.Doc_name.of_string name) ~at ~value ~body

let memo_of = function
  | Data_at { memo; _ }
  | Doc { memo; _ }
  | Query_app { memo; _ }
  | Sc { memo; _ }
  | Send { memo; _ }
  | Eval_at { memo; _ }
  | Shared { memo; _ } ->
      memo

let query_site = function
  | Q_val { at; _ } -> Names.At at
  | Q_service r -> r.Names.Service_ref.at
  | Q_send { dest; _ } -> Names.At dest

let rec site = function
  | Data_at { at; _ } -> Names.At at
  | Doc { doc; _ } -> doc.Names.Doc_ref.at
  | Query_app { at; _ } -> Names.At at
  | Sc { at; _ } -> Names.At at
  | Send { dest = To_peer p; _ } -> Names.At p
  | Send { dest = To_nodes _ | To_doc _; expr; _ } ->
      (* Side-effecting sends return ∅ at the site of their operand
         (definitions (3), (4)). *)
      site expr
  | Eval_at { expr; _ } -> site expr
  | Shared { body; _ } -> site body

let subexpressions = function
  | Data_at _ | Doc _ | Sc _ -> []
  | Query_app { args; _ } -> args
  | Send { expr; _ } | Eval_at { expr; _ } -> [ expr ]
  | Shared { value; body; _ } -> [ value; body ]

let map_children f e =
  match e with
  | Data_at _ | Doc _ | Sc _ -> e
  | Query_app { query; args; at; _ } ->
      query_app query ~args:(List.map f args) ~at
  | Send { dest; expr; _ } -> send dest (f expr)
  | Eval_at { at; expr; _ } -> eval_at at (f expr)
  | Shared { name; at; value; body; _ } ->
      (* Forced left-to-right so [f] sees children in
         [subexpressions] order — labelled arguments evaluate
         right-to-left, which silently swapped the two slots for any
         stateful [f] (e.g. Rewrite.everywhere's positional rebuild). *)
      let value = f value in
      let body = f body in
      shared_named name ~at ~value ~body

exception Uncacheable

let cache_deps e =
  let add acc (p, d) =
    if List.exists (fun (p', d') -> Peer_id.equal p p' && String.equal d d') acc
    then acc
    else (p, d) :: acc
  in
  let rec go acc = function
    | Data_at { forest; _ } ->
        (* A literal forest is a value — no dependencies — unless it
           carries sc-rooted trees: evaluating those activates the
           calls (definition (6)), a side effect a cached replay would
           repeat at the wrong time. *)
        if List.exists Axml_doc.Sc.is_sc forest then raise Uncacheable else acc
    | Doc { doc = { Names.Doc_ref.name; at = Names.At p }; _ } ->
        add acc (p, Names.Doc_name.to_string name)
    | Doc { doc = { at = Names.Any; _ }; _ } ->
        (* Resolution of d@any depends on catalog state, not document
           content — not captured by doc versions. *)
        raise Uncacheable
    | Query_app { query = Q_val _; args; _ } -> List.fold_left go acc args
    | Query_app { query = Q_service _ | Q_send _; _ } ->
        (* Service lookup reads registry state; Q_send deploys. *)
        raise Uncacheable
    | Eval_at { expr; _ } -> go acc expr
    | Sc _ | Send _ | Shared _ ->
        (* Activations, shipping and materialization are effects. *)
        raise Uncacheable
  in
  match go [] e with
  | deps ->
      Some
        (List.sort
           (fun (p, d) (p', d') ->
             let c = Peer_id.compare p p' in
             if c <> 0 then c else String.compare d d')
           deps)
  | exception Uncacheable -> None

let add_peer acc p = if List.exists (Peer_id.equal p) acc then acc else acc @ [ p ]
let location_peers acc = function Names.At p -> add_peer acc p | Names.Any -> acc

let rec query_peers acc = function
  | Q_val { at; _ } -> add_peer acc at
  | Q_service r -> location_peers acc r.Names.Service_ref.at
  | Q_send { dest; q } -> query_peers (add_peer acc dest) q

let dest_peers acc = function
  | To_peer p -> add_peer acc p
  | To_doc (_, p) -> add_peer acc p
  | To_nodes targets ->
      List.fold_left
        (fun acc (r : Names.Node_ref.t) -> add_peer acc r.peer)
        acc targets

let rec peers_acc acc = function
  | Data_at { at; _ } -> add_peer acc at
  | Doc { doc; _ } -> location_peers acc doc.Names.Doc_ref.at
  | Query_app { query; args; at; _ } ->
      let acc = add_peer acc at in
      let acc = query_peers acc query in
      List.fold_left peers_acc acc args
  | Sc { sc; at; _ } ->
      let acc = add_peer acc at in
      let acc = location_peers acc sc.Axml_doc.Sc.provider in
      List.fold_left
        (fun acc (r : Names.Node_ref.t) -> add_peer acc r.peer)
        acc sc.Axml_doc.Sc.forward
  | Send { dest; expr; _ } -> peers_acc (dest_peers acc dest) expr
  | Eval_at { at; expr; _ } -> peers_acc (add_peer acc at) expr
  | Shared { at; value; body; _ } ->
      peers_acc (peers_acc (add_peer acc at) value) body

let peers e = peers_acc [] e

(* Plans share every subtree a rewrite did not rebuild, so physical
   equality settles most comparisons before any walk. *)
let rec equal_expr a b =
  a == b
  ||
  match (a, b) with
  | Data_at x, Data_at y ->
      (* Canonical comparison: node identifiers, sibling order and text
         segmentation are wire artefacts, not plan structure. *)
      Peer_id.equal x.at y.at
      && Axml_xml.Canonical.equal_forest x.forest y.forest
  | Doc x, Doc y -> Names.Doc_ref.equal x.doc y.doc
  | Query_app x, Query_app y ->
      Peer_id.equal x.at y.at
      && query_equal x.query y.query
      && List.equal equal_expr x.args y.args
  | Sc x, Sc y -> Peer_id.equal x.at y.at && Axml_doc.Sc.equal x.sc y.sc
  | Send x, Send y -> dest_equal x.dest y.dest && equal_expr x.expr y.expr
  | Eval_at x, Eval_at y -> Peer_id.equal x.at y.at && equal_expr x.expr y.expr
  | Shared x, Shared y ->
      Names.Doc_name.equal x.name y.name
      && Peer_id.equal x.at y.at
      && equal_expr x.value y.value && equal_expr x.body y.body
  | (Data_at _ | Doc _ | Query_app _ | Sc _ | Send _ | Eval_at _ | Shared _), _
    ->
      false

and query_equal a b =
  match (a, b) with
  | Q_val x, Q_val y -> Peer_id.equal x.at y.at && Axml_query.Ast.equal x.q y.q
  | Q_service x, Q_service y -> Names.Service_ref.equal x y
  | Q_send x, Q_send y -> Peer_id.equal x.dest y.dest && query_equal x.q y.q
  | (Q_val _ | Q_service _ | Q_send _), _ -> false

and dest_equal a b =
  match (a, b) with
  | To_peer x, To_peer y -> Peer_id.equal x y
  | To_nodes x, To_nodes y -> List.equal Names.Node_ref.equal x y
  | To_doc (n1, p1), To_doc (n2, p2) ->
      Names.Doc_name.equal n1 n2 && Peer_id.equal p1 p2
  | (To_peer _ | To_nodes _ | To_doc _), _ -> false

(* Full structural comparisons are the inner loop of plan search; the
   counter lets the planner benchmarks report how many a strategy
   actually paid for. *)
let equal_counter = ref 0

let equal a b =
  incr equal_counter;
  equal_expr a b

let equal_calls () = !equal_counter

(* {2 Fingerprints}

   A fingerprint must be invariant under everything [equal] ignores:
   node identifiers and sibling order inside embedded forests (hashed
   through the canonical form, combined commutatively for multiset
   equality) and the order of an sc's forward list (sorted before
   hashing).  Each node's is computed from its own fields and its
   children's stored fingerprints, once, and kept in its memo. *)

let mix h x = ((h * 0x01000193) lxor x) land max_int
let hash_string s = Hashtbl.hash (s : string)

let hash_location = function
  | Names.Any -> 0x9e3779b9 land max_int
  | Names.At p -> mix 0x51ed (Peer_id.hash p)

(* Multiset hash: commutative combination of canonical tree hashes. *)
let hash_forest f =
  List.fold_left
    (fun acc t -> (acc + Axml_xml.Canonical.hash t) land max_int)
    0x1505 f

let hash_node_ref (r : Names.Node_ref.t) =
  hash_string (Names.Node_ref.to_string r)

let hash_sc (sc : Axml_doc.Sc.t) =
  let h = mix 6 (hash_location sc.Axml_doc.Sc.provider) in
  let h =
    mix h (hash_string (Names.Service_name.to_string sc.Axml_doc.Sc.service))
  in
  let h =
    List.fold_left (fun h f -> mix h (hash_forest f)) h sc.Axml_doc.Sc.params
  in
  List.fold_left
    (fun h r -> mix h (hash_node_ref r))
    h
    (List.sort Names.Node_ref.compare sc.Axml_doc.Sc.forward)

(* The planner hands one query AST to every candidate it builds: the
   last AST hashed is recognized physically, so a rebuilt application
   over it skips the structural hash. *)
let last_ast_hash = ref None

let hash_ast q =
  match !last_ast_hash with
  | Some (q', h) when q' == q -> h
  | Some _ | None ->
      let h = Hashtbl.hash (q : Axml_query.Ast.t) in
      last_ast_hash := Some (q, h);
      h

let rec hash_query = function
  | Q_val { q; at } -> mix (mix 20 (hash_ast q)) (Peer_id.hash at)
  | Q_service r ->
      mix
        (mix 21 (hash_string (Names.Service_name.to_string r.Names.Service_ref.name)))
        (hash_location r.Names.Service_ref.at)
  | Q_send { dest; q } -> mix (mix 22 (Peer_id.hash dest)) (hash_query q)

let hash_dest = function
  | To_peer p -> mix 30 (Peer_id.hash p)
  | To_nodes targets ->
      List.fold_left (fun h r -> mix h (hash_node_ref r)) 31 targets
  | To_doc (d, p) ->
      mix (mix 32 (hash_string (Names.Doc_name.to_string d))) (Peer_id.hash p)

let leaf hash : Fingerprint.t = { hash; size = 1; depth = 1 }

let rec fingerprint e =
  let m = memo_of e in
  if m.fp == unset then m.fp <- summarize e;
  m.fp

and summarize = function
  | Data_at { forest; at; _ } ->
      leaf (mix (mix 1 (Peer_id.hash at)) (hash_forest forest))
  | Doc { doc = r; _ } ->
      leaf
        (mix
           (mix 2 (hash_string (Names.Doc_name.to_string r.Names.Doc_ref.name)))
           (hash_location r.Names.Doc_ref.at))
  | Sc { sc; at; _ } -> leaf (mix (hash_sc sc) (Peer_id.hash at))
  | Query_app { query; args; at; _ } ->
      let h = mix (mix 3 (hash_query query)) (Peer_id.hash at) in
      combine h args
  | Send { dest; expr; _ } -> combine (mix 4 (hash_dest dest)) [ expr ]
  | Eval_at { at; expr; _ } -> combine (mix 5 (Peer_id.hash at)) [ expr ]
  | Shared { name; at; value; body; _ } ->
      let h =
        mix (mix 7 (hash_string (Names.Doc_name.to_string name)))
          (Peer_id.hash at)
      in
      combine h [ value; body ]

and combine h children : Fingerprint.t =
  let h, size, depth =
    List.fold_left
      (fun (h, size, depth) child ->
        let f = fingerprint child in
        (mix h f.Fingerprint.hash, size + f.size, max depth f.depth))
      (h, 1, 0) children
  in
  { hash = h; size; depth = depth + 1 }

let size e = (fingerprint e).Fingerprint.size
let depth e = (fingerprint e).Fingerprint.depth

let memo_byte_size measure e =
  let m = memo_of e in
  if m.bytes < 0 then m.bytes <- measure e;
  m.bytes

let rec pp fmt = function
  | Data_at { forest; at; _ } ->
      Format.fprintf fmt "data[%dB]@%a" (Forest.byte_size forest) Peer_id.pp at
  | Doc { doc; _ } -> Format.fprintf fmt "doc(%a)" Names.Doc_ref.pp doc
  | Query_app { query; args; at; _ } ->
      Format.fprintf fmt "@[<hv 2>apply@%a(%a)(@,%a)@]" Peer_id.pp at pp_query
        query
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.fprintf fmt ",@ ")
           pp)
        args
  | Sc { sc; at; _ } ->
      Format.fprintf fmt "%a@%a" Axml_doc.Sc.pp sc Peer_id.pp at
  | Send { dest; expr; _ } ->
      Format.fprintf fmt "@[<hv 2>send(%a,@ %a)@]" pp_dest dest pp expr
  | Eval_at { at; expr; _ } ->
      Format.fprintf fmt "@[<hv 2>eval@%a(@,%a)@]" Peer_id.pp at pp expr
  | Shared { name; at; value; body; _ } ->
      Format.fprintf fmt "@[<hv 2>share %a@%a :=@ %a@ in@ %a@]"
        Names.Doc_name.pp name Peer_id.pp at pp value pp body

and pp_query fmt = function
  | Q_val { q; at } ->
      Format.fprintf fmt "query[%d-ary]@%a" (Axml_query.Ast.arity q) Peer_id.pp
        at
  | Q_service r -> Format.fprintf fmt "svc(%a)" Names.Service_ref.pp r
  | Q_send { dest; q } ->
      Format.fprintf fmt "send(%a, %a)" Peer_id.pp dest pp_query q

and pp_dest fmt = function
  | To_peer p -> Peer_id.pp fmt p
  | To_nodes targets ->
      Format.fprintf fmt "[%s]"
        (String.concat "; " (List.map Names.Node_ref.to_string targets))
  | To_doc (d, p) ->
      Format.fprintf fmt "%s@%s" (Names.Doc_name.to_string d)
        (Peer_id.to_string p)

let to_string e = Format.asprintf "%a" pp e
