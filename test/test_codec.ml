(* Binary wire codec suite (DESIGN.md §16).

   Two layers of properties:

   - the codec itself: encode/decode round-trips every payload variant
     (batch frames included, each item with its own node ids),
     [frame_bytes] is exactly [Bytes.length (encode m)] without
     materializing the frame — also for blobs whose string tables
     outgrow the sizing table's array slots — a served copy is
     [Tree.copy] with its XML size and an exact cached blob length,
     and truncated/corrupt/over-length/padded frames are rejected with
     [Error], never an exception;

   - the system: chaos replays and the flash-crowd scenario reach the
     same canonical results and Σ fingerprint under the XML, binary
     and strict-binary wires — the wire changes costs, never answers —
     and the strict wire charges exactly what the binary wire does. *)

open Axml
open Helpers
module Message = Runtime.Message
module Codec = Runtime.Codec
module System = Runtime.System
module Exec = Runtime.Exec
module Expr = Algebra.Expr
module Names = Doc.Names
module Rng = Net.Rng
module Fault = Net.Fault

(* --- random messages ---------------------------------------------- *)

let labels = [| "a"; "b"; "item"; "data"; "x-y.z" |]

let texts =
  [| ""; "plain"; "a < b & c > d"; "quote \" tick '"; "tab\there\nline"; "é€" |]

let attr_names = [| "k"; "name"; "version"; "xml-lang" |]

let rec rand_tree ~gen rng depth =
  if depth = 0 || Rng.int rng 4 = 0 then Xml.Tree.text texts.(Rng.int rng 6)
  else
    let attrs =
      List.init (Rng.int rng 3) (fun i ->
          (attr_names.(Rng.int rng 4) ^ string_of_int i, texts.(Rng.int rng 6)))
    in
    let children =
      List.init (Rng.int rng 4) (fun _ -> rand_tree ~gen rng (depth - 1))
    in
    Xml.Tree.element_of_string ~attrs ~gen labels.(Rng.int rng 5) children

let rand_forest ~gen rng = List.init (Rng.int rng 4) (fun _ -> rand_tree ~gen rng 3)

let peers = [| "p1"; "p2"; "mirror007" |]

let rand_peer rng = peer peers.(Rng.int rng 3)

let rand_node_id ~gen rng =
  if Rng.bool rng then Xml.Node_id.Gen.fresh gen
  else Option.get (Xml.Node_id.make ~ns:"remote" ~counter:(Rng.int rng 1000))

let rand_dest ~gen rng =
  match Rng.int rng 3 with
  | 0 -> Message.Cont { peer = rand_peer rng; key = Rng.int rng 10_000 }
  | 1 ->
      Message.Node
        (Names.Node_ref.make ~node:(rand_node_id ~gen rng) ~peer:(rand_peer rng))
  | _ ->
      Message.Install
        {
          peer = rand_peer rng;
          name = "doc" ^ string_of_int (Rng.int rng 100);
        }

let rand_dests ~gen rng = List.init (Rng.int rng 3) (fun _ -> rand_dest ~gen rng)

let rand_notify rng =
  if Rng.bool rng then Some (rand_peer rng, Rng.int rng 1000) else None

let exprs =
  lazy
    [
      Expr.doc "cat" ~at:"p2";
      Expr.send_to_peer (peer "p1") (Expr.doc "orders" ~at:"p3");
      Expr.query_at
        (query
           {|query(2) for $o in $0//order, $i in $1//item where attr($o, "item") = attr($i, "name") return <m>{$i}</m>|})
        ~at:(peer "p1")
        ~args:[ Expr.doc "orders" ~at:"p3"; Expr.doc "cat" ~at:"p2" ];
    ]

let queries =
  lazy
    [
      query {|query(1) for $x in $0//item return <r>{$x}</r>|};
      query
        {|query(2) for $x in $0//a, $y in $1//b where text($x) = text($y) return <p>{$x}{$y}</p>|};
    ]

(* Sequenced messages a batch could legally carry; forests from a
   shared pool put one forest value in several items of a frame, each
   carried whole. *)
let rand_batchable ~gen ~pool rng seq =
  let forest =
    if Rng.int rng 2 = 0 then pool.(Rng.int rng (Array.length pool))
    else rand_forest ~gen rng
  in
  let payload =
    match Rng.int rng 3 with
    | 0 -> Message.Stream { key = Rng.int rng 100; forest; final = Rng.bool rng }
    | 1 ->
        Message.Insert
          { node = rand_node_id ~gen rng; forest; notify = rand_notify rng }
    | _ ->
        Message.Install_doc
          {
            name = "log" ^ string_of_int (Rng.int rng 4);
            forest;
            notify = rand_notify rng;
          }
  in
  Message.make ~corr:(Rng.int rng 100) ~seq ~op:(Rng.int rng 5 - 1) payload

let rand_payload ~gen rng =
  match Rng.int rng 11 with
  | 0 ->
      Message.Stream
        {
          key = Rng.int rng 10_000;
          forest = rand_forest ~gen rng;
          final = Rng.bool rng;
        }
  | 1 ->
      Message.Eval_request
        {
          expr = Rng.pick rng (Lazy.force exprs);
          replies = rand_dests ~gen rng;
          ack = rand_notify rng;
        }
  | 2 ->
      Message.Invoke
        {
          service = Names.Service_name.of_string "fetch";
          params = List.init (Rng.int rng 3) (fun _ -> rand_forest ~gen rng);
          replies = rand_dests ~gen rng;
        }
  | 3 ->
      Message.Insert
        {
          node = rand_node_id ~gen rng;
          forest = rand_forest ~gen rng;
          notify = rand_notify rng;
        }
  | 4 ->
      Message.Install_doc
        {
          name = "d" ^ string_of_int (Rng.int rng 50);
          forest = rand_forest ~gen rng;
          notify = rand_notify rng;
        }
  | 5 ->
      Message.Deploy
        {
          prefix = "svc";
          query = Rng.pick rng (Lazy.force queries);
          reply = rand_dest ~gen rng;
        }
  | 6 ->
      Message.Query_shipped
        { key = Rng.int rng 1000; query = Rng.pick rng (Lazy.force queries) }
  | 7 -> Message.Ack { seq = Rng.int rng 10_000 }
  | 8 ->
      Message.Migrate_doc
        {
          name = "hot" ^ string_of_int (Rng.int rng 20);
          forest = rand_forest ~gen rng;
          notify = rand_notify rng;
        }
  | 9 ->
      Message.Retract_doc
        { name = "hot" ^ string_of_int (Rng.int rng 20); notify = rand_notify rng }
  | _ ->
      let pool = Array.init 2 (fun _ -> rand_forest ~gen rng) in
      let n = 1 + Rng.int rng 5 in
      Message.batch ~ack:(Rng.int rng 100)
        (List.init n (fun i -> rand_batchable ~gen ~pool rng (i + 1)))

let rand_message seed =
  let rng = Rng.create ~seed in
  let gen = Xml.Node_id.Gen.create ~namespace:"codec-test" in
  Message.make ~corr:(Rng.int rng 1000) ~seq:(Rng.int rng 1000)
    ~op:(Rng.int rng 6 - 1)
    (rand_payload ~gen rng)

(* --- wide trees ---------------------------------------------------- *)

(* Trees off the sizing table's fast path: more distinct labels and
   attribute names than its 32 array slots, labels and names that are
   equal in content but physically distinct strings, several id
   namespaces (one spelled like a label), and counters on both sides of
   the one/two- and two/three-byte varint boundaries. *)
let wide_labels = Array.init 40 (fun i -> "l" ^ string_of_int i)
let wide_keys = Array.init 40 (fun i -> "k" ^ string_of_int i)

let wide_namespaces =
  [| "wide"; "peer-b"; wide_labels.(3); String.concat "" [ "l"; "5" ] |]

let boundary_counters =
  [| 0; 1; 126; 127; 128; 129; 16_382; 16_383; 16_384; 16_385 |]

(* [s] itself or a physically distinct string of the same content. *)
let wide_string rng s = if Rng.bool rng then s else Bytes.to_string (Bytes.of_string s)

let wide_id rng =
  let counter =
    if Rng.bool rng then boundary_counters.(Rng.int rng 10)
    else Rng.int rng 20_000
  in
  Option.get (Xml.Node_id.make ~ns:wide_namespaces.(Rng.int rng 4) ~counter)

let rec wide_tree rng depth =
  if depth = 0 || Rng.int rng 5 = 0 then Xml.Tree.text texts.(Rng.int rng 6)
  else wide_element rng ~kids:(Rng.int rng 8) depth

and wide_element rng ~kids depth =
  let first = Rng.int rng 40 in
  let attrs =
    List.init (Rng.int rng 4) (fun i ->
        (wide_string rng wide_keys.((first + (7 * i)) mod 40), texts.(Rng.int rng 6)))
  in
  let label = Xml.Label.of_string (wide_string rng wide_labels.(Rng.int rng 40)) in
  let id = wide_id rng in
  let children = List.init kids (fun _ -> wide_tree rng (depth - 1)) in
  Xml.Tree.with_id id ~attrs label children

let wide_root rng = wide_element rng ~kids:(6 + Rng.int rng 7) 3

(* A [Stream], [Insert] or [Install_doc] of wide trees, or a [Batch]
   carrying several of them. *)
let wide_message seed =
  let rng = Rng.create ~seed in
  let item seq =
    let forest = List.init (1 + Rng.int rng 3) (fun _ -> wide_root rng) in
    let payload =
      match Rng.int rng 3 with
      | 0 -> Message.Stream { key = Rng.int rng 100_000; forest; final = Rng.bool rng }
      | 1 -> Message.Insert { node = wide_id rng; forest; notify = rand_notify rng }
      | _ ->
          Message.Install_doc
            { name = "wide" ^ string_of_int (Rng.int rng 300); forest; notify = rand_notify rng }
    in
    Message.make ~corr:(Rng.int rng 1000) ~seq ~op:(Rng.int rng 5 - 1) payload
  in
  if Rng.int rng 4 = 0 then
    Message.make ~corr:(Rng.int rng 1000)
      (Message.batch ~ack:(Rng.int rng 20_000)
         (List.init (1 + Rng.int rng 4) (fun i -> item (i + 1))))
  else item (Rng.int rng 20_000)

(* --- equality on decoded messages --------------------------------- *)

(* The codec preserves node identifiers exactly, so tree equality here
   is stricter than Canonical: ids, labels, attrs, children, order. *)
let rec tree_identical a b =
  match (a, b) with
  | Xml.Tree.Text s, Xml.Tree.Text s' -> String.equal s s'
  | Xml.Tree.Element e, Xml.Tree.Element e' ->
      Xml.Node_id.equal e.id e'.id
      && Xml.Label.equal e.label e'.label
      && e.attrs = e'.attrs
      && List.length e.children = List.length e'.children
      && List.for_all2 tree_identical e.children e'.children
  | _ -> false

let forest_identical a b =
  List.length a = List.length b && List.for_all2 tree_identical a b

let rec payload_equal p p' =
  match (p, p') with
  | Message.Stream a, Message.Stream b ->
      a.key = b.key && a.final = b.final && forest_identical a.forest b.forest
  | Message.Eval_request a, Message.Eval_request b ->
      Expr.equal a.expr b.expr && a.replies = b.replies && a.ack = b.ack
  | Message.Invoke a, Message.Invoke b ->
      Names.Service_name.equal a.service b.service
      && a.replies = b.replies
      && List.length a.params = List.length b.params
      && List.for_all2 forest_identical a.params b.params
  | Message.Insert a, Message.Insert b ->
      Xml.Node_id.equal a.node b.node
      && a.notify = b.notify
      && forest_identical a.forest b.forest
  | Message.Install_doc a, Message.Install_doc b ->
      String.equal a.name b.name && a.notify = b.notify
      && forest_identical a.forest b.forest
  | Message.Deploy a, Message.Deploy b ->
      String.equal a.prefix b.prefix
      && Query.Ast.equal a.query b.query
      && a.reply = b.reply
  | Message.Query_shipped a, Message.Query_shipped b ->
      a.key = b.key && Query.Ast.equal a.query b.query
  | Message.Ack a, Message.Ack b -> a.seq = b.seq
  | Message.Migrate_doc a, Message.Migrate_doc b ->
      String.equal a.name b.name && a.notify = b.notify
      && forest_identical a.forest b.forest
  | Message.Retract_doc a, Message.Retract_doc b ->
      String.equal a.name b.name && a.notify = b.notify
  | Message.Batch a, Message.Batch b ->
      a.ack = b.ack
      && List.length a.items = List.length b.items
      && List.for_all2 msg_equal a.items b.items
  | _ -> false

and msg_equal (m : Message.t) (m' : Message.t) =
  m.corr = m'.corr && m.seq = m'.seq && m.op = m'.op
  && payload_equal m.payload m'.payload

(* --- properties ---------------------------------------------------- *)

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1_000_000)

let prop ?(count = 300) name p =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name seed_arb p)

let roundtrip_prop =
  prop "decode (encode m) reconstructs m exactly" (fun seed ->
      let m = rand_message seed in
      match Codec.decode (Codec.encode m) with
      | Ok m' -> msg_equal m m'
      | Error e -> QCheck.Test.fail_reportf "decode: %a" Codec.pp_error e)

let frame_bytes_prop =
  prop "frame_bytes = |encode m| without materializing" (fun seed ->
      let m = rand_message seed in
      let predicted = Codec.frame_bytes m in
      predicted = Bytes.length (Codec.encode m))

let wide_frame_bytes_prop =
  prop "frame_bytes exact on wide string tables" (fun seed ->
      let m = wide_message seed in
      Codec.frame_bytes m = Bytes.length (Codec.encode m))

(* Element counters in post-order: children left to right, then the
   element itself. *)
let post_order_counters t =
  let rec go acc = function
    | Xml.Tree.Text _ -> acc
    | Xml.Tree.Element e -> Xml.Node_id.counter e.id :: List.fold_left go acc e.children
  in
  List.rev (go [] t)

(* A document read serves [Codec.serve_copy]'s copy and charges its
   CPU by the size it returns; the send that carries the copy reads
   the blob length the walk cached.  Each generator pre-advanced to
   [start] is checked against a twin under [Tree.copy]. *)
let serve_copy_prop =
  prop ~count:200 "serve_copy is Tree.copy, priced and sized in one walk"
    (fun seed ->
      let rng = Rng.create ~seed in
      let src =
        if Rng.bool rng then
          rand_tree ~gen:(Xml.Node_id.Gen.create ~namespace:"src") rng 4
        else wide_root rng
      in
      let namespace = [| "serve"; "item"; "l3" |].(Rng.int rng 3) in
      List.for_all
        (fun start ->
          let check what ok = ok || QCheck.Test.fail_reportf "start %d: %s" start what in
          let advanced () =
            let g = Xml.Node_id.Gen.create ~namespace in
            for _ = 1 to start do ignore (Xml.Node_id.Gen.fresh g) done;
            g
          in
          let g = advanced () and twin = advanced () in
          let copy, bytes = Codec.serve_copy ~gen:g src in
          let m = Message.make (Message.Stream { key = 1; forest = [ copy ]; final = true }) in
          let charged = Codec.frame_bytes m in
          let counters = post_order_counters copy in
          check "equal_strict to Tree.copy"
            (Xml.Tree.equal_strict copy (Xml.Tree.copy ~gen:twin src))
          && check "ids drawn in post-order"
               (counters = List.init (List.length counters) (fun i -> start + i))
          && check "generators end at the same counter"
               (Xml.Node_id.equal (Xml.Node_id.Gen.fresh g) (Xml.Node_id.Gen.fresh twin))
          && check "size is Tree.byte_size" (bytes = Xml.Tree.byte_size src)
          && check "cached blob length is exact" (charged = Bytes.length (Codec.encode m)))
        [ 0; 120; 16_380 ])

(* Sizing a decoded message must also be exact, and re-encoding it
   must reproduce the frame it came from. *)
let decoded_frame_bytes_prop =
  prop "frame_bytes is exact on decoded messages" (fun seed ->
      let m = rand_message seed in
      let frame = Codec.encode m in
      match Codec.decode frame with
      | Ok m' ->
          Codec.frame_bytes m' = Bytes.length frame
          && Bytes.equal (Codec.encode m') frame
      | Error e -> QCheck.Test.fail_reportf "decode: %a" Codec.pp_error e)

let xml_sizing_prop =
  prop "serialized_length mirrors the serializer" (fun seed ->
      let rng = Rng.create ~seed in
      let gen = Xml.Node_id.Gen.create ~namespace:"sizing" in
      let t = rand_tree ~gen rng 4 in
      Xml.Serializer.serialized_length t
      = String.length (Xml.Serializer.to_string t))

(* Every strict prefix of a frame is rejected (the length prefix pins
   the exact extent), as is appended junk; random single-byte
   corruption must never escape as an exception. *)
let truncation_prop =
  prop "truncated and over-length frames are rejected" (fun seed ->
      let m = rand_message seed in
      let frame = Codec.encode m in
      let n = Bytes.length frame in
      let rng = Rng.create ~seed in
      let cut = Rng.int rng n in
      let prefix_rejected =
        match Codec.decode (Bytes.sub frame 0 cut) with
        | Error _ -> true
        | Ok _ -> false
      in
      let extended = Bytes.extend frame 0 (1 + Rng.int rng 8) in
      let overlength_rejected =
        match Codec.decode extended with Error _ -> true | Ok _ -> false
      in
      prefix_rejected && overlength_rejected)

let corruption_prop =
  prop ~count:500 "corrupt frames never crash the decoder" (fun seed ->
      let m = rand_message seed in
      let frame = Codec.encode m in
      let rng = Rng.create ~seed in
      let pos = Rng.int rng (Bytes.length frame) in
      Bytes.set frame pos (Char.chr (Rng.int rng 256));
      (* Either rejected or decoded into some message — the only wrong
         outcome is an escaped exception. *)
      match Codec.decode frame with Ok _ | Error _ -> true)

(* A one-tree [Stream] frame (31 B) with 3 junk bytes padded inside its
   tree blob, both length prefixes grown to cover them (34 B).  Every
   other prefix and field is intact, so only the blob-extent check can
   reject it; accepted, it would decode to a message whose
   [frame_bytes] is 31, not the 34 that arrived. *)
let padded_blob_frame () =
  let g = gen () in
  let frame =
    Codec.encode
      (Message.make
         (Message.Stream { key = 1; forest = [ parse ~g "<a>text</a>" ]; final = true }))
  in
  (* uv(body) magic version corr seq op kind key final ntrees uv(blob):
     one byte each at this size, so the blob starts at offset 11. *)
  let blob_len = Char.code (Bytes.get frame 10) in
  Alcotest.(check int) "blob ends the frame" (Bytes.length frame) (11 + blob_len);
  let padded = Bytes.cat frame (Bytes.of_string "\x00\x00\x00") in
  Bytes.set padded 0 (Char.chr (Char.code (Bytes.get frame 0) + 3));
  Bytes.set padded 10 (Char.chr (blob_len + 3));
  Bytes.to_string padded

(* Two one-tree [Insert]s of one shape, the first from generator [a],
   the second from [b], as sequenced messages 1 and 2. *)
let same_shape_inserts () =
  let insert ns seq =
    let g = Xml.Node_id.Gen.create ~namespace:ns in
    let forest = [ parse ~g "<item k=\"y\"><name>alpha</name></item>" ] in
    Message.make ~seq
      (Message.Insert
         { node = Xml.Node_id.Gen.fresh (gen ()); forest; notify = None })
  in
  [ insert "a" 1; insert "b" 2 ]

(* A batch frame of [same_shape_inserts] whose second item tag is
   0x01, the retired in-frame back-reference.  Both frames here are
   under 128 bytes, so their length prefixes are one byte each and the
   second item starts where the one-item frame ends. *)
let backref_tag_frame () =
  let msgs = same_shape_inserts () in
  let one = Codec.encode (Message.make (Message.batch ~ack:0 [ List.hd msgs ])) in
  let two = Codec.encode (Message.make (Message.batch ~ack:0 msgs)) in
  Alcotest.(check bool) "one-byte length prefixes" true (Bytes.length two < 128);
  let at = Bytes.length one in
  Alcotest.(check char) "second item tag" '\x00' (Bytes.get two at);
  Bytes.set two at '\x01';
  Bytes.to_string two

let test_garbage_rejected () =
  let backref = backref_tag_frame () in
  List.iter
    (fun bytes ->
      match Codec.decode (Bytes.of_string bytes) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted garbage %S" bytes)
    [
      ""; "\x00"; "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"; "\x05hello";
      padded_blob_frame (); backref;
    ];
  match Codec.decode (Bytes.of_string backref) with
  | Error (Codec.Malformed _) -> ()
  | Error Codec.Truncated -> Alcotest.fail "item tag 0x01: truncated, not malformed"
  | Ok _ -> Alcotest.fail "item tag 0x01 accepted"

(* Items of one shape under different node ids reach the receiver with
   their own ids: a frame carries every message whole. *)
let test_batch_items_keep_ids () =
  let sent = same_shape_inserts () in
  let forest_of (m : Message.t) =
    match m.payload with
    | Message.Insert { forest; _ } -> forest
    | _ -> Alcotest.fail "expected an Insert"
  in
  let root_id m =
    Xml.Node_id.to_string (Option.get (Xml.Tree.id (List.hd (forest_of m))))
  in
  Alcotest.(check (list string)) "sent roots" [ "a:1"; "b:1" ]
    (List.map root_id sent);
  match
    (Codec.roundtrip (Message.make (Message.batch ~ack:0 sent))).payload
  with
  | Message.Batch { items; _ } ->
      Alcotest.(check (list string)) "delivered roots" [ "a:1"; "b:1" ]
        (List.map root_id items);
      List.iter2
        (fun s d ->
          Alcotest.(check bool) "forest equal_strict to the sent one" true
            (List.equal Xml.Tree.equal_strict (forest_of s) (forest_of d)))
        sent items
  | _ -> Alcotest.fail "expected a Batch"

(* --- the system under the binary wire ------------------------------ *)

let wires = [ ("xml", System.Xml); ("binary", System.Binary);
              ("binary-strict", System.Binary_strict) ]

let chaos_plans () =
  let _, inbox_id = Test_rules_exec.build_system () in
  Test_rules_exec.base_plans inbox_id

let chaos_seeds = [ 1; 7; 4242 ]

(* One chaos replay of [plan] on [wire]: results, Σ and traffic. *)
let chaos_run ?seed plan wire =
  let sys, _ = Test_rules_exec.build_system ~transport:System.Reliable ~wire () in
  Option.iter
    (fun seed ->
      System.inject_faults sys (Fault.random ~seed (List.map peer [ "p1"; "p2"; "p3" ])))
    seed;
  let out = Exec.run_to_quiescence sys ~ctx:(peer "p1") plan in
  (out, System.fingerprint sys, System.stats sys)

(* The small batched flash crowd on [wire]: Σ, completions, traffic. *)
let crowd_run wire =
  let fc =
    Workload.Scenarios.flash_crowd ~mirrors:3 ~subscribers:8
      ~requests_per_subscriber:2 ~transport:System.Reliable ~wire
      ~flush_ms:2.0 ~ack_delay_ms:8.0 ~seed:11 ()
  in
  let outcome, _ =
    System.run ~max_events:200_000 fc.Workload.Scenarios.fc_system
  in
  Alcotest.(check bool) "quiescent" true (outcome = `Quiescent);
  ( System.fingerprint fc.Workload.Scenarios.fc_system,
    !(fc.Workload.Scenarios.fc_completed),
    System.stats fc.Workload.Scenarios.fc_system )

let test_chaos_cross_wire () =
  List.iter
    (fun (name, plan) ->
      let ref_out, ref_fp, _ = chaos_run plan System.Xml in
      List.iter
        (fun (wname, wire) ->
          List.iter
            (fun seed ->
              let out, fp, _ = chaos_run ~seed plan wire in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s/seed %d: quiescent" name wname seed)
                true
                (out.Exec.termination = `Quiescent && out.Exec.finished);
              check_canonical_forests
                (Printf.sprintf "%s/%s/seed %d: same results" name wname seed)
                ref_out.Exec.results out.Exec.results;
              Alcotest.(check string)
                (Printf.sprintf "%s/%s/seed %d: same Σ" name wname seed)
                ref_fp fp)
            chaos_seeds)
        wires)
    (chaos_plans ())

let test_flash_crowd_cross_wire () =
  let fp_xml, done_xml, stats_xml = crowd_run System.Xml in
  List.iter
    (fun (wname, wire) ->
      let fp, done_, stats = crowd_run wire in
      Alcotest.(check string) (wname ^ ": same Σ as the XML wire") fp_xml fp;
      Alcotest.(check int) (wname ^ ": same completions") done_xml done_;
      Alcotest.(check int) (wname ^ ": same physical message count")
        stats_xml.Net.Stats.messages stats.Net.Stats.messages;
      if wire <> System.Xml then
        Alcotest.(check bool)
          (Printf.sprintf "%s: binary frames are smaller (%d < %d)" wname
             stats.Net.Stats.bytes stats_xml.Net.Stats.bytes)
          true
          (stats.Net.Stats.bytes < stats_xml.Net.Stats.bytes))
    wires

let check_same_stats label (a : Net.Stats.snapshot) (b : Net.Stats.snapshot) =
  let field f x y = Alcotest.(check int) (label ^ ": " ^ f) x y in
  field "messages" a.messages b.messages;
  field "payload messages" a.payload_messages b.payload_messages;
  field "bytes" a.bytes b.bytes;
  field "local messages" a.local_messages b.local_messages;
  field "drops" a.drops b.drops;
  Alcotest.(check (float 0.0)) (label ^ ": completion") a.completion_ms b.completion_ms;
  let links s =
    List.map
      (fun ((src, dst), mb) -> ((Net.Peer_id.to_string src, Net.Peer_id.to_string dst), mb))
      s.Net.Stats.per_link
  in
  Alcotest.(check (list (pair (pair string string) (pair int int))))
    (label ^ ": per-link") (links a) (links b)

(* The strict wire round-trips every transmission through the codec;
   what it charges must be exactly the binary wire's charge, traffic
   and timing included, not just the same Σ. *)
let test_strict_wire_charges_binary () =
  List.iter
    (fun (name, plan) ->
      List.iter
        (fun seed ->
          let label = Printf.sprintf "%s/seed %d" name seed in
          let _, fp, stats = chaos_run ~seed plan System.Binary in
          let _, fp', stats' = chaos_run ~seed plan System.Binary_strict in
          check_same_stats label stats stats';
          Alcotest.(check string) (label ^ ": same Σ") fp fp')
        chaos_seeds)
    (chaos_plans ());
  let fp, done_, stats = crowd_run System.Binary in
  let fp', done', stats' = crowd_run System.Binary_strict in
  check_same_stats "flash crowd" stats stats';
  Alcotest.(check int) "flash crowd: same completions" done_ done';
  Alcotest.(check string) "flash crowd: same Σ" fp fp'

let suite =
  [
    roundtrip_prop;
    frame_bytes_prop;
    wide_frame_bytes_prop;
    serve_copy_prop;
    decoded_frame_bytes_prop;
    xml_sizing_prop;
    truncation_prop;
    corruption_prop;
    ("garbage frames rejected", `Quick, test_garbage_rejected);
    ("batch items keep their own node ids", `Quick, test_batch_items_keep_ids);
    ("chaos replay: wires agree on results and Σ", `Quick, test_chaos_cross_wire);
    ("flash crowd: wires agree, binary is smaller", `Quick,
     test_flash_crowd_cross_wire);
    ("strict wire: charges exactly what binary charges", `Quick,
     test_strict_wire_charges_binary);
  ]
