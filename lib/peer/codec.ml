module Tree = Axml_xml.Tree
module Forest = Axml_xml.Forest
module Label = Axml_xml.Label
module Node_id = Axml_xml.Node_id
module Peer_id = Axml_net.Peer_id
module Names = Axml_doc.Names

type error = Truncated | Malformed of string

let pp_error fmt = function
  | Truncated -> Format.pp_print_string fmt "truncated frame"
  | Malformed m -> Format.fprintf fmt "malformed frame: %s" m

exception Err of error

let truncated () = raise (Err Truncated)
let malformed m = raise (Err (Malformed m))

let magic = 0xA7
let version = 0x01

(* ---------- varints ---------- *)

(* LEB128.  [uv] writes a non-negative-interpreted int as up to 9
   groups of 7 bits (63 bits, the full OCaml int range); [zv] zigzags
   first so small negative scalars (op = -1) stay one byte. *)

let rec uv_size n = if n land lnot 0x7f = 0 then 1 else 1 + uv_size (n lsr 7)
let zig n = (n lsl 1) lxor (n asr 62)
let unzig v = (v lsr 1) lxor (-(v land 1))
let zv_size n = uv_size (zig n)

let buf_uv b n =
  let rec go n =
    if n land lnot 0x7f = 0 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let buf_zv b n = buf_uv b (zig n)

let buf_str b s =
  buf_uv b (String.length s);
  Buffer.add_string b s

let str_size s = uv_size (String.length s) + String.length s

(* ---------- bounded reader ---------- *)

type rd = { buf : Bytes.t; mutable pos : int; limit : int }

let rd_byte r =
  if r.pos >= r.limit then truncated ();
  let c = Char.code (Bytes.get r.buf r.pos) in
  r.pos <- r.pos + 1;
  c

let rd_uv r =
  let rec go shift acc =
    if shift > 56 then malformed "varint overflow";
    let c = rd_byte r in
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let rd_zv r = unzig (rd_uv r)

let rd_len r =
  let n = rd_uv r in
  if n < 0 || n > r.limit - r.pos then truncated ();
  n

(* A declared element count; each element needs at least [per] bytes,
   which bounds preallocation against corrupt counts. *)
let rd_count r ~per =
  let n = rd_uv r in
  if n < 0 || n > (r.limit - r.pos) / per then malformed "count exceeds frame";
  n

let rd_str r =
  let n = rd_len r in
  let s = Bytes.sub_string r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let rd_skip r n =
  if n > r.limit - r.pos then truncated ();
  r.pos <- r.pos + n

(* ---------- tree blobs ----------

   A tree is encoded as a self-contained blob: an interned string
   table (labels, attribute names, identifier namespaces, in first-use
   order) followed by the node structure referencing table indices. *)

let encode_tree_blob t =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] and next = ref 0 in
  let intern s =
    match Hashtbl.find_opt tbl s with
    | Some i -> i
    | None ->
        let i = !next in
        Hashtbl.add tbl s i;
        order := s :: !order;
        incr next;
        i
  in
  let rec collect = function
    | Tree.Text _ -> ()
    | Tree.Element e ->
        ignore (intern (Label.to_string e.label));
        ignore (intern (Node_id.namespace e.id));
        List.iter (fun (k, _) -> ignore (intern k)) e.attrs;
        List.iter collect e.children
  in
  collect t;
  let b = Buffer.create 128 in
  buf_uv b !next;
  List.iter (buf_str b) (List.rev !order);
  let idx s = Hashtbl.find tbl s in
  let rec node = function
    | Tree.Text s ->
        Buffer.add_char b '\x02';
        buf_str b s
    | Tree.Element e ->
        Buffer.add_char b '\x01';
        buf_uv b (idx (Label.to_string e.label));
        buf_uv b (idx (Node_id.namespace e.id));
        buf_uv b (Node_id.counter e.id);
        buf_uv b (List.length e.attrs);
        List.iter
          (fun (k, v) ->
            buf_uv b (idx k);
            buf_str b v)
          e.attrs;
        buf_uv b (List.length e.children);
        List.iter node e.children
  in
  node t;
  Buffer.to_bytes b

(* ---------- blob length without the blob ----------

   Byte accounting sizes every outbound message, and most carried
   trees are one-shot: materializing the encoded blob (buffer, intern
   table, copy) just to learn its length would make the binary wire
   allocate more than the XML model's arithmetic walk.  So sizing has
   its own pure-arithmetic pass that mirrors [encode_tree_blob]
   byte-for-byte: same pre-order traversal, hence the same first-use
   intern order, hence the same index widths.

   A blob's string table is small — a few labels, attribute names and
   one or two id namespaces, nearly always the very same string values
   from node to node — so the scratch intern table is a fixed array of
   [small_slots] strings, scanned by physical identity first and by
   content second.  Only strings past the first [small_slots] go to a
   hash table, which is cleared only after a blob that spilled into
   it.  Each fold adds its list's count as it ends, so nothing takes a
   list's length, and sizing allocates nothing. *)

let small_slots = 32
let small_keys = Array.make small_slots ""
let spill : (string, int) Hashtbl.t = Hashtbl.create 64
let size_count = ref 0
let size_strings = ref 0

let size_reset () =
  if !size_count > small_slots then Hashtbl.clear spill;
  size_count := 0;
  size_strings := 0

let rec find_phys s n i =
  if i = n then -1 else if small_keys.(i) == s then i else find_phys s n (i + 1)

let rec find_equal s n i =
  if i = n then -1
  else if String.equal small_keys.(i) s then i
  else find_equal s n (i + 1)

(* Consecutive blobs mostly intern the same strings in the same order,
   so a slot that already holds [s] is not written again: the write
   would go through the array's write barrier. *)
let size_add s i =
  if i >= small_slots then Hashtbl.add spill s i
  else if small_keys.(i) != s then small_keys.(i) <- s;
  size_count := i + 1;
  size_strings := !size_strings + str_size s;
  i

let size_intern s =
  let count = !size_count in
  let n = if count < small_slots then count else small_slots in
  let i = find_phys s n 0 in
  if i >= 0 then i
  else
    let i = find_equal s n 0 in
    if i >= 0 then i
    else if count <= small_slots then size_add s count
    else
      match Hashtbl.find spill s with
      | i -> i
      | exception Not_found -> size_add s count

(* The blob bytes of each node kind, less its attributes and children
   (and the two counts, which the folds add): both sizing walks price
   nodes through these alone. *)
let text_bytes s = 1 + str_size s
let element_bytes ~label ~ns ~counter = 1 + uv_size label + uv_size ns + uv_size counter
let attr_bytes ~key v = uv_size key + str_size v

let blob_total body = uv_size !size_count + !size_strings + body

(* Interning is order-sensitive (index width depends on assignment
   order), so side-effecting calls are sequenced with [let] — OCaml
   evaluates operands of [+] right to left. *)
let rec size_attrs acc n = function
  | [] -> acc + uv_size n
  | (k, v) :: rest ->
      let key = size_intern k in
      size_attrs (acc + attr_bytes ~key v) (n + 1) rest

let rec size_node acc = function
  | Tree.Text s -> acc + text_bytes s
  | Tree.Element e ->
      let label = size_intern (Label.to_string e.label) in
      let ns = size_intern (Node_id.namespace e.id) in
      let acc = acc + element_bytes ~label ~ns ~counter:(Node_id.counter e.id) in
      size_children (size_attrs acc 0 e.attrs) 0 e.children

and size_children acc n = function
  | [] -> acc + uv_size n
  | c :: rest -> size_children (size_node acc c) (n + 1) rest

let tree_blob_size t =
  size_reset ();
  blob_total (size_node 0 t)

(* Direct-mapped physical-identity cache of blob lengths: shared trees
   (flash-crowd request and package payloads) are carried by fresh
   messages, so a per-message cache would always miss — this one is
   keyed by the tree itself and costs zero allocation on a hit.  Slots
   are indexed by node identifier, disambiguated by [==] (a rebuilt
   tree with a preserved id lands in the same slot but fails the
   identity check and is re-measured).  Entries are strong references,
   so the cache pins at most [len_slots] trees — a bounded, deliberate
   trade for allocation-free sizing. *)

let len_slots = 4096
let len_keys = Array.make len_slots (Tree.text "")
let len_vals = Array.make len_slots 0

let len_slot (e : Tree.element) =
  (Node_id.counter e.id * 0x9e3779b1)
  lxor Hashtbl.hash (Node_id.namespace e.id)
  land (len_slots - 1)

let tree_blob_len t =
  match t with
  (* an empty string table still has its one-byte count header *)
  | Tree.Text s -> 2 + str_size s
  | Tree.Element e ->
      let i = len_slot e in
      if len_keys.(i) == t then len_vals.(i)
      else begin
        let n = tree_blob_size t in
        len_keys.(i) <- t;
        len_vals.(i) <- n;
        n
      end

(* ---------- the served copy ----------

   A document read copies the stored tree under the serving peer's
   generator, prices the copy's CPU by [Tree.byte_size], and ships it.
   [serve_copy] does all three in one walk: it copies, sums
   [Tree.byte_size]'s formula over the source, and sizes the copy's
   blob as [size_node] would, then seeds the length cache under the
   copy so the send that carries it is a hit.  The copy is
   [Tree.copy]'s: children are copied left to right before their
   parent draws its fresh id, so ids are drawn in post-order.  The
   copy's blob interns the generator's namespace for every element,
   in the same pre-order as [size_node].  The walk is the same on every
   wire, though only the binary wire reads the cached length. *)

let serve_blob = ref 0
let serve_xml = ref 0

let rec serve_attrs n = function
  | [] -> serve_blob := !serve_blob + uv_size n
  | (k, v) :: rest ->
      let key = size_intern k in
      serve_blob := !serve_blob + attr_bytes ~key v;
      serve_xml := !serve_xml + String.length k + String.length v + 4;
      serve_attrs (n + 1) rest

let rec serve_node gen ns = function
  | Tree.Text s ->
      serve_blob := !serve_blob + text_bytes s;
      serve_xml := !serve_xml + String.length s;
      Tree.Text s
  | Tree.Element e ->
      let tag = Label.to_string e.label in
      let label = size_intern tag in
      let nsi = size_intern ns in
      serve_attrs 0 e.attrs;
      let children = serve_children gen ns 0 e.children in
      let id = Node_id.Gen.fresh gen in
      serve_blob :=
        !serve_blob + element_bytes ~label ~ns:nsi ~counter:(Node_id.counter id);
      (* <label attrs>children</label> *)
      serve_xml := !serve_xml + (2 * String.length tag) + 5;
      Tree.Element { e with id; children }

and[@tail_mod_cons] serve_children gen ns n = function
  | [] ->
      serve_blob := !serve_blob + uv_size n;
      []
  | c :: rest ->
      let c = serve_node gen ns c in
      c :: serve_children gen ns (n + 1) rest

let serve_copy ~gen t =
  size_reset ();
  serve_blob := 0;
  serve_xml := 0;
  let copy = serve_node gen (Node_id.Gen.namespace gen) t in
  (match copy with
  | Tree.Element e ->
      let i = len_slot e in
      len_keys.(i) <- copy;
      len_vals.(i) <- blob_total !serve_blob
  | Tree.Text _ -> ());
  (copy, !serve_xml)

let decode_tree_blob r =
  let nstrings = rd_count r ~per:1 in
  let strings = Array.make (max nstrings 1) "" in
  for i = 0 to nstrings - 1 do
    strings.(i) <- rd_str r
  done;
  let str i =
    if i < 0 || i >= nstrings then malformed "string index out of range"
    else strings.(i)
  in
  let rec node depth =
    if depth > 10_000 then malformed "tree too deep";
    match rd_byte r with
    | 0x02 -> Tree.text (rd_str r)
    | 0x01 ->
        let label =
          match Label.of_string_opt (str (rd_uv r)) with
          | Some l -> l
          | None -> malformed "invalid label"
        in
        let ns = str (rd_uv r) in
        let counter = rd_uv r in
        let id =
          match Node_id.make ~ns ~counter with
          | Some id -> id
          | None -> malformed "invalid node identifier"
        in
        let nattrs = rd_count r ~per:2 in
        let attrs =
          List.init nattrs (fun _ ->
              let k = str (rd_uv r) in
              let v = rd_str r in
              (k, v))
        in
        let nchildren = rd_count r ~per:1 in
        let children = List.init nchildren (fun _ -> node (depth + 1)) in
        Tree.with_id id ~attrs label children
    | k -> malformed (Printf.sprintf "unknown node tag %#x" k)
  in
  node 0

(* A tree blob framed as uv(blob_len) blob.  The blob must end
   exactly at its declared length: padding inside it would make
   [frame_bytes] of the decoded message disagree with the frame it came
   from. *)
let rd_tree r =
  let len = rd_len r in
  let sub = { buf = r.buf; pos = r.pos; limit = r.pos + len } in
  rd_skip r len;
  let t = decode_tree_blob sub in
  if sub.pos <> sub.limit then malformed "trailing bytes in tree blob";
  t

(* ---------- forest sections ----------

   forest := uv(ntrees) { uv(blob_len) blob }*

   Sizing reads each tree's blob length from the direct-mapped cache,
   so a shared tree is measured once however many messages carry it;
   the tree count is taken in the same fold. *)

let rec forest_trees_size acc n = function
  | [] -> acc + uv_size n
  | t :: rest ->
      let len = tree_blob_len t in
      forest_trees_size (acc + uv_size len + len) (n + 1) rest

let forest_section_size f = forest_trees_size 0 0 f

(* An [Invoke]'s parameters: uv(nparams) { forest }*. *)
let rec params_size acc n = function
  | [] -> acc + uv_size n
  | f :: rest -> params_size (acc + forest_section_size f) (n + 1) rest

let buf_forest b f =
  buf_uv b (List.length f);
  List.iter
    (fun t ->
      let blob = encode_tree_blob t in
      buf_uv b (Bytes.length blob);
      Buffer.add_bytes b blob)
    f

let rd_forest r =
  let ntrees = rd_count r ~per:1 in
  List.init ntrees (fun _ -> rd_tree r)

(* ---------- scalars, names, destinations ---------- *)

let buf_bool b v = Buffer.add_char b (if v then '\x01' else '\x00')

let rd_bool r =
  match rd_byte r with
  | 0 -> false
  | 1 -> true
  | _ -> malformed "invalid boolean"

let buf_peer b p = buf_str b (Peer_id.to_string p)

let rd_peer r =
  match Peer_id.of_string_opt (rd_str r) with
  | Some p -> p
  | None -> malformed "invalid peer identifier"

let buf_node_id b id =
  buf_str b (Node_id.namespace id);
  buf_uv b (Node_id.counter id)

let node_id_size id = str_size (Node_id.namespace id) + uv_size (Node_id.counter id)

let rd_node_id r =
  let ns = rd_str r in
  let counter = rd_uv r in
  match Node_id.make ~ns ~counter with
  | Some id -> id
  | None -> malformed "invalid node identifier"

let buf_dest b = function
  | Message.Cont { peer; key } ->
      Buffer.add_char b '\x00';
      buf_peer b peer;
      buf_zv b key
  | Message.Node { Names.Node_ref.node; peer } ->
      Buffer.add_char b '\x01';
      buf_node_id b node;
      buf_peer b peer
  | Message.Install { peer; name } ->
      Buffer.add_char b '\x02';
      buf_peer b peer;
      buf_str b name

let dest_size = function
  | Message.Cont { peer; key } ->
      1 + str_size (Peer_id.to_string peer) + zv_size key
  | Message.Node { Names.Node_ref.node; peer } ->
      1 + node_id_size node + str_size (Peer_id.to_string peer)
  | Message.Install { peer; name } ->
      1 + str_size (Peer_id.to_string peer) + str_size name

let rd_dest r =
  match rd_byte r with
  | 0 ->
      let peer = rd_peer r in
      let key = rd_zv r in
      Message.Cont { peer; key }
  | 1 ->
      let node = rd_node_id r in
      let peer = rd_peer r in
      Message.Node (Names.Node_ref.make ~node ~peer)
  | 2 ->
      let peer = rd_peer r in
      let name = rd_str r in
      Message.Install { peer; name }
  | k -> malformed (Printf.sprintf "unknown destination tag %#x" k)

let buf_dests b ds =
  buf_uv b (List.length ds);
  List.iter (buf_dest b) ds

let rec dests_size_from acc n = function
  | [] -> acc + uv_size n
  | d :: rest -> dests_size_from (acc + dest_size d) (n + 1) rest

let dests_size ds = dests_size_from 0 0 ds

let rd_dests r =
  let n = rd_count r ~per:2 in
  List.init n (fun _ -> rd_dest r)

let buf_notify b = function
  | None -> Buffer.add_char b '\x00'
  | Some (peer, key) ->
      Buffer.add_char b '\x01';
      buf_peer b peer;
      buf_zv b key

let notify_size = function
  | None -> 1
  | Some (peer, key) -> 1 + str_size (Peer_id.to_string peer) + zv_size key

let rd_notify r =
  match rd_byte r with
  | 0 -> None
  | 1 ->
      let peer = rd_peer r in
      let key = rd_zv r in
      Some (peer, key)
  | _ -> malformed "invalid option tag"

(* Expressions and queries travel textually-equivalent but compact:
   an expression as one tree blob of its XML view, a query as its
   surface syntax (both have exact parse round-trips). *)

let expr_tree e =
  let gen = Node_id.Gen.create ~namespace:"wire-expr" in
  Axml_algebra.Expr_xml.to_tree ~gen e

let rd_expr r =
  match Axml_algebra.Expr_xml.of_tree (rd_tree r) with
  | Ok e -> e
  | Error m -> malformed ("invalid expression: " ^ m)

let rd_query r =
  match Axml_query.Parser.parse (rd_str r) with
  | Ok q -> q
  | Error _ -> malformed "invalid query"

(* ---------- payloads ---------- *)

let kind_of = function
  | Message.Stream _ -> 0
  | Message.Eval_request _ -> 1
  | Message.Invoke _ -> 2
  | Message.Insert _ -> 3
  | Message.Install_doc _ -> 4
  | Message.Deploy _ -> 5
  | Message.Query_shipped _ -> 6
  | Message.Ack _ -> 7
  | Message.Batch _ -> 8
  | Message.Migrate_doc _ -> 9
  | Message.Retract_doc _ -> 10

let rec buf_payload b p =
  Buffer.add_char b (Char.chr (kind_of p));
  match p with
  | Message.Stream { key; forest; final } ->
      buf_zv b key;
      buf_bool b final;
      buf_forest b forest
  | Message.Eval_request { expr; replies; ack } ->
      let blob = encode_tree_blob (expr_tree expr) in
      buf_uv b (Bytes.length blob);
      Buffer.add_bytes b blob;
      buf_dests b replies;
      buf_notify b ack
  | Message.Invoke { service; params; replies } ->
      buf_str b (Names.Service_name.to_string service);
      buf_uv b (List.length params);
      List.iter (buf_forest b) params;
      buf_dests b replies
  | Message.Insert { node; forest; notify } ->
      buf_node_id b node;
      buf_notify b notify;
      buf_forest b forest
  | Message.Install_doc { name; forest; notify }
  | Message.Migrate_doc { name; forest; notify } ->
      buf_str b name;
      buf_notify b notify;
      buf_forest b forest
  | Message.Retract_doc { name; notify } ->
      buf_str b name;
      buf_notify b notify
  | Message.Deploy { prefix; query; reply } ->
      buf_str b prefix;
      buf_str b (Axml_query.Ast.to_string query);
      buf_dest b reply
  | Message.Query_shipped { key; query } ->
      buf_zv b key;
      buf_str b (Axml_query.Ast.to_string query)
  | Message.Ack { seq } -> buf_zv b seq
  | Message.Batch { items; ack } ->
      buf_zv b ack;
      buf_uv b (List.length items);
      (* Each item: tag 0x00, then its length-prefixed sub-body.  The
         tag is constant; it stays so that the frame format does not
         change, and the decoder rejects any other tag. *)
      List.iter
        (fun m ->
          Buffer.add_char b '\x00';
          buf_uv b (subbody_size m);
          buf_subbody b m)
        items

and buf_subbody b (m : Message.t) =
  buf_zv b m.corr;
  buf_zv b m.seq;
  buf_zv b m.op;
  buf_payload b m.payload

and payload_size p =
  1
  +
  match p with
  | Message.Stream { key; forest; _ } ->
      zv_size key + 1 + forest_section_size forest
  | Message.Eval_request { expr; replies; ack } ->
      (* Not [tree_blob_len]: every expression tree reuses the
         [wire-expr] node ids and would evict forest entries from the
         direct-mapped cache. *)
      let blen = tree_blob_size (expr_tree expr) in
      uv_size blen + blen + dests_size replies + notify_size ack
  | Message.Invoke { service; params; replies } ->
      str_size (Names.Service_name.to_string service)
      + params_size 0 0 params
      + dests_size replies
  | Message.Insert { node; forest; notify } ->
      node_id_size node + notify_size notify + forest_section_size forest
  | Message.Install_doc { name; forest; notify }
  | Message.Migrate_doc { name; forest; notify } ->
      str_size name + notify_size notify + forest_section_size forest
  | Message.Retract_doc { name; notify } -> str_size name + notify_size notify
  | Message.Deploy { prefix; query; reply } ->
      str_size prefix
      + str_size (Axml_query.Ast.to_string query)
      + dest_size reply
  | Message.Query_shipped { key; query } ->
      zv_size key + str_size (Axml_query.Ast.to_string query)
  | Message.Ack { seq } -> zv_size seq
  | Message.Batch { items; ack } ->
      zv_size ack + batch_items_size 0 0 items

(* A named member of the recursive group rather than an inline fold:
   an anonymous closure referencing the group is re-allocated on every
   call, and this runs once per flushed frame on the hot path.  The
   item count is taken in the same fold. *)
and batch_items_size acc n = function
  | [] -> acc + uv_size n
  | m :: rest ->
      let s = subbody_size m in
      batch_items_size (acc + 1 + uv_size s + s) (n + 1) rest

and subbody_size (m : Message.t) =
  zv_size m.corr + zv_size m.seq + zv_size m.op + payload_size m.payload

(* ---------- frames ---------- *)

let body_size (m : Message.t) =
  2 + zv_size m.corr + zv_size m.seq + zv_size m.op + payload_size m.payload

let frame_bytes (m : Message.t) =
  let b = body_size m in
  uv_size b + b

let encode (m : Message.t) =
  let b = Buffer.create 256 in
  buf_uv b (body_size m);
  Buffer.add_char b (Char.chr magic);
  Buffer.add_char b (Char.chr version);
  buf_zv b m.corr;
  buf_zv b m.seq;
  buf_zv b m.op;
  buf_payload b m.payload;
  Buffer.to_bytes b

let rec rd_payload r =
  let kind = rd_byte r in
  match kind with
  | 0 ->
      let key = rd_zv r in
      let final = rd_bool r in
      let forest = rd_forest r in
      Message.Stream { key; forest; final }
  | 1 ->
      let expr = rd_expr r in
      let replies = rd_dests r in
      let ack = rd_notify r in
      Message.Eval_request { expr; replies; ack }
  | 2 ->
      let service =
        match Names.Service_name.of_string_opt (rd_str r) with
        | Some s -> s
        | None -> malformed "invalid service name"
      in
      let nparams = rd_count r ~per:1 in
      let params = List.init nparams (fun _ -> rd_forest r) in
      let replies = rd_dests r in
      Message.Invoke { service; params; replies }
  | 3 ->
      let node = rd_node_id r in
      let notify = rd_notify r in
      let forest = rd_forest r in
      Message.Insert { node; forest; notify }
  | 4 ->
      let name = rd_str r in
      let notify = rd_notify r in
      let forest = rd_forest r in
      Message.Install_doc { name; forest; notify }
  | 9 ->
      let name = rd_str r in
      let notify = rd_notify r in
      let forest = rd_forest r in
      Message.Migrate_doc { name; forest; notify }
  | 10 ->
      let name = rd_str r in
      let notify = rd_notify r in
      Message.Retract_doc { name; notify }
  | 5 ->
      let prefix = rd_str r in
      let query = rd_query r in
      let reply = rd_dest r in
      Message.Deploy { prefix; query; reply }
  | 6 ->
      let key = rd_zv r in
      let query = rd_query r in
      Message.Query_shipped { key; query }
  | 7 -> Message.Ack { seq = rd_zv r }
  | 8 ->
      let ack = rd_zv r in
      let nitems = rd_count r ~per:2 in
      let items =
        List.init nitems (fun _ ->
            match rd_byte r with
            | 0 -> rd_subitem r
            | k -> malformed (Printf.sprintf "unknown batch item tag %#x" k))
      in
      Message.Batch { items; ack }
  | k -> malformed (Printf.sprintf "unknown payload kind %#x" k)

and rd_subitem r =
  let sublen = rd_len r in
  let sub = { buf = r.buf; pos = r.pos; limit = r.pos + sublen } in
  rd_skip r sublen;
  let corr = rd_zv sub in
  let seq = rd_zv sub in
  let op = rd_zv sub in
  let payload = rd_payload sub in
  if sub.pos <> sub.limit then malformed "trailing bytes in batch item";
  Message.make ~corr ~seq ~op payload

let decode buf =
  try
    let r = { buf; pos = 0; limit = Bytes.length buf } in
    let blen = rd_uv r in
    if blen < 0 || blen > r.limit - r.pos then truncated ();
    if blen < r.limit - r.pos then malformed "over-length frame";
    if rd_byte r <> magic then malformed "bad magic";
    if rd_byte r <> version then malformed "unsupported version";
    let corr = rd_zv r in
    let seq = rd_zv r in
    let op = rd_zv r in
    let payload = rd_payload r in
    if r.pos <> r.limit then malformed "trailing payload bytes";
    Ok (Message.make ~corr ~seq ~op payload)
  with
  | Err e -> Error e
  | Invalid_argument m -> Error (Malformed m)

let roundtrip m =
  match decode (encode m) with
  | Ok m' -> m'
  | Error e -> invalid_arg (Format.asprintf "Codec.roundtrip: %a" pp_error e)
