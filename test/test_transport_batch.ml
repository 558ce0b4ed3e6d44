(* The Reliable transport's sequenced window (DESIGN.md §13).

   One window per direction carries every sequenced message.  At the
   0.0 defaults of [flush_ms]/[ack_delay_ms] each message ships bare
   the moment it is sent and is acked the moment it arrives, before
   its handler runs.  With the knobs raised, coalescing must cut
   physical message counts (and the fixed envelope cost), delayed acks
   must be piggybacked on reverse traffic or fired standalone, and
   within-frame transfer sharing must dedup identical forests — all
   without changing the delivered results or the final Σ. *)

open Axml
open Helpers
module Expr = Algebra.Expr
module Names = Doc.Names
module Message = Runtime.Message
module System = Runtime.System
module Exec = Runtime.Exec
module Fault = Net.Fault

let p1 = peer "p1"
let p2 = peer "p2"

(* --- Message.Batch accounting (pure) ------------------------------- *)

let stream_msg ?(g = gen ()) ~seq xml =
  let forest = [ parse ~g xml ] in
  Message.make ~seq (Message.Stream { key = 7; forest; final = false })

let test_batch_bytes () =
  let g = gen () in
  let m1 = stream_msg ~g ~seq:1 "<a><b>one</b></a>" in
  let m2 = stream_msg ~g ~seq:2 "<c>two two two</c>" in
  let payload = Message.batch ~ack:5 [ m1; m2 ] in
  Alcotest.(check int) "item count" 2 (Message.batch_size payload);
  Alcotest.(check int) "no dedup on distinct forests" 0
    (Message.batch_saved payload);
  let body m = Message.bytes m.Message.payload - Message.envelope in
  Alcotest.(check int) "one envelope + per-item headers"
    (Message.envelope
    + Message.item_header + body m1
    + Message.item_header + body m2)
    (Message.bytes payload);
  (* Coalescing two messages must beat sending them separately. *)
  Alcotest.(check bool) "cheaper than two envelopes" true
    (Message.bytes payload
    < Message.bytes m1.Message.payload + Message.bytes m2.Message.payload)

let test_batch_dedup () =
  let g = gen () in
  let xml = "<item k=\"y\"><name>alpha</name></item>" in
  let m1 = stream_msg ~g ~seq:1 xml in
  let m2 = stream_msg ~g ~seq:2 xml in
  let m3 = stream_msg ~g ~seq:3 "<other/>" in
  let payload = Message.batch ~ack:0 [ m1; m2; m3 ] in
  let forest_bytes =
    match m1.Message.payload with
    | Message.Stream { forest; _ } -> Xml.Forest.byte_size forest
    | _ -> assert false
  in
  Alcotest.(check int) "second copy shipped as a back-reference"
    forest_bytes
    (Message.batch_saved payload);
  (match payload with
  | Message.Batch { items; _ } -> (
      match items with
      | [ Message.Full _; Message.Shared { of_seq; saved; msg }; Message.Full _ ]
        ->
          Alcotest.(check int) "back-reference targets the first carrier" 1
            of_seq;
          Alcotest.(check int) "saved = forest size" forest_bytes saved;
          Alcotest.(check int) "full payload retained for delivery" 2
            msg.Message.seq
      | _ -> Alcotest.fail "expected [Full; Shared; Full]")
  | _ -> Alcotest.fail "expected a Batch");
  let no_dedup =
    Message.envelope
    + List.fold_left
        (fun acc (m : Message.t) ->
          acc + Message.item_header
          + (Message.bytes m.Message.payload - Message.envelope))
        0 [ m1; m2; m3 ]
  in
  Alcotest.(check int) "frame bytes discounted by saved - backref"
    (no_dedup - forest_bytes + Message.backref_bytes)
    (Message.bytes payload)

(* --- 0/0 knobs: one bare frame per message ------------------------- *)

let run_plan ?flush_ms ?ack_delay_ms plan =
  let sys, _ =
    Test_rules_exec.build_system ~transport:System.Reliable ?flush_ms
      ?ack_delay_ms ()
  in
  let out = Exec.run_to_quiescence sys ~ctx:(peer "p1") plan in
  (out, System.fingerprint sys, System.reliability_counters sys)

let join_plan () =
  List.assoc "two-site-join"
    (Test_rules_exec.base_plans
       (snd (Test_rules_exec.build_system ())))

(* The defaults are the window at [flush_ms = ack_delay_ms = 0]: an
   explicit 0/0 run is the same run, and a fault-free join ships every
   message bare — no [Batch] frame, no deferred or piggybacked ack. *)
let test_zero_knobs_ship_bare () =
  let plan = join_plan () in
  let out_a, fp_a, rc_a = run_plan plan in
  let out_b, fp_b, rc_b = run_plan ~flush_ms:0.0 ~ack_delay_ms:0.0 plan in
  Alcotest.(check bool) "identical stats snapshots" true
    (out_a.Exec.stats = out_b.Exec.stats);
  Alcotest.(check string) "identical fingerprints" fp_a fp_b;
  Alcotest.(check bool) "identical reliability counters" true (rc_a = rc_b);
  Alcotest.(check int) "no batch frames" 0 rc_a.System.batches_sent;
  Alcotest.(check int) "no piggybacked acks" 0 rc_a.System.piggybacked_acks;
  Alcotest.(check int) "no delayed acks" 0 rc_a.System.delayed_acks;
  Alcotest.(check int) "physical = logical messages"
    out_a.Exec.stats.Net.Stats.messages
    out_a.Exec.stats.Net.Stats.payload_messages

(* --- the receiver acks before it dispatches ------------------------ *)

(* A request whose handler keeps the receiver busy: a declarative
   service priced at 50 ms of CPU per KB of parameter.  At
   [ack_delay_ms = 0] the request's ack must leave p2 the moment the
   request arrives.  An ack sent after dispatch would depart only when
   the handler's CPU ends, and the sender's 40 ms retry timer would
   re-ship a request that had arrived in time.  (The reply itself is
   sent while p2 is busy and may be re-sent before it departs; only
   the request's acknowledgement is pinned here.) *)
let test_ack_before_dispatch () =
  let topo = mesh ~latency:10.0 ~bandwidth:1000.0 [ "p1"; "p2" ] in
  let sys =
    System.create ~transport:System.Reliable ~cpu_ms_per_kb:50.0 ~rto_ms:40.0
      topo
  in
  System.add_service sys p2
    (Doc.Service.declarative ~name:"pick"
       (query
          {|query(1) for $x in $0//item where attr($x, "k") = "y" return <hit/>|}));
  let g = gen () in
  let param =
    [
      elt g "catalog"
        (List.init 200 (fun i ->
             elt ~attrs:[ ("k", if i = 7 then "y" else "n") ] g "item"
               [ txt (string_of_int i) ]));
    ]
  in
  with_tracing @@ fun () ->
  let key = System.fresh_key sys in
  let hits = ref [] in
  System.set_cont sys key (fun forest ~final:_ -> hits := !hits @ forest);
  System.send sys ~src:p1 ~dst:p2
    (Message.Invoke
       {
         service = Names.Service_name.of_string "pick";
         params = [ param ];
         replies = [ Message.Cont { peer = p1; key } ];
       });
  let outcome, _ = System.run sys in
  Alcotest.(check bool) "quiescent" true (outcome = `Quiescent);
  Alcotest.(check int) "one hit" 1 (List.length !hits);
  let sent ~src prefix =
    List.filter
      (fun (x : Net.Sim.xfer) ->
        Net.Peer_id.equal x.src src && String.starts_with ~prefix x.note)
      (xfers ())
  in
  let invokes = sent ~src:p1 "invoke" in
  Alcotest.(check int) "request shipped once" 1 (List.length invokes);
  let invoke = List.hd invokes in
  let ack = List.hd (sent ~src:p2 "ack") in
  let reply = List.hd (sent ~src:p2 "stream") in
  let arrival =
    invoke.depart_ms
    +. Net.Link.transfer_ms
         (Net.Topology.link topo ~src:p1 ~dst:p2)
         ~bytes:invoke.bytes
  in
  Alcotest.(check (float 1e-9)) "the span ends at the arrival" arrival
    invoke.arrive_ms;
  let cpu_ms = 50.0 *. float_of_int (Xml.Forest.byte_size param) /. 1024.0 in
  Alcotest.(check (float 1e-9)) "ack departs when the request arrives" arrival
    ack.depart_ms;
  Alcotest.(check bool)
    (Printf.sprintf "reply departs after the handler's CPU (%.1f ms)" cpu_ms)
    true
    (reply.depart_ms >= arrival +. cpu_ms -. 1e-9)

(* --- coalescing on a chatty stream --------------------------------- *)

(* A continuous service streaming [k] small responses spaced by
   [response_delay_ms]: the workload where per-message envelopes and
   per-message acks dominate, and where batching pays. *)
let streamer k =
  Doc.Service.extern ~name:"streamer"
    ~signature:(Schema.Signature.untyped ~arity:0)
    (fun _ ->
      let g = Xml.Node_id.Gen.create ~namespace:"batch-stream" in
      List.init k (fun i ->
          Xml.Tree.element_of_string ~gen:g "s"
            [ Xml.Tree.text (string_of_int i) ]))

let stream_system ?flush_ms ?ack_delay_ms () =
  let sys =
    System.create ~transport:System.Reliable ~response_delay_ms:1.0 ?flush_ms
      ?ack_delay_ms
      (mesh ~latency:10.0 ~bandwidth:100.0 [ "p1"; "p2" ])
  in
  System.add_service sys p2 (streamer 30);
  let inbox_gen = Xml.Node_id.Gen.create ~namespace:"batch-inbox" in
  let inbox = Xml.Tree.element_of_string ~gen:inbox_gen "inbox" [] in
  let inbox_id = Option.get (Xml.Tree.id inbox) in
  System.add_document sys p1 ~name:"collector" inbox;
  (sys, inbox_id)

let stream_plan inbox_id =
  Expr.sc
    (Doc.Sc.make
       ~forward:[ Names.Node_ref.make ~node:inbox_id ~peer:p1 ]
       ~provider:(Names.At p2) ~service:"streamer" [])
    ~at:p1

let run_stream ?flush_ms ?ack_delay_ms ?fault () =
  let sys, inbox_id = stream_system ?flush_ms ?ack_delay_ms () in
  Option.iter (System.inject_faults sys) fault;
  let out = Exec.run_to_quiescence sys ~ctx:p1 (stream_plan inbox_id) in
  Alcotest.(check bool) "quiescent" true (out.Exec.termination = `Quiescent);
  let doc = Option.get (System.find_document sys p1 "collector") in
  let texts =
    Xml.Tree.children (Doc.Document.root doc)
    |> List.map (fun c -> String.trim (Xml.Tree.text_content c))
    |> List.sort String.compare
  in
  (out, texts, System.fingerprint sys, System.reliability_counters sys)

let test_coalescing_reduces_messages () =
  let out_off, texts_off, fp_off, rc_off = run_stream () in
  let out_on, texts_on, fp_on, rc_on =
    run_stream ~flush_ms:2.0 ~ack_delay_ms:8.0 ()
  in
  Alcotest.(check (list string)) "same collected stream" texts_off texts_on;
  Alcotest.(check string) "same Σ fingerprint" fp_off fp_on;
  let off = out_off.Exec.stats and on_ = out_on.Exec.stats in
  Alcotest.(check bool)
    (Printf.sprintf "fewer physical messages (%d -> %d)"
       off.Net.Stats.messages on_.Net.Stats.messages)
    true
    (on_.Net.Stats.messages < off.Net.Stats.messages);
  Alcotest.(check bool)
    (Printf.sprintf "fewer bytes (%d -> %d)" off.Net.Stats.bytes
       on_.Net.Stats.bytes)
    true
    (on_.Net.Stats.bytes < off.Net.Stats.bytes);
  Alcotest.(check bool) "logical messages exceed physical frames" true
    (on_.Net.Stats.payload_messages > on_.Net.Stats.messages);
  Alcotest.(check bool) "batch frames were shipped" true
    (rc_on.System.batches_sent > 0);
  Alcotest.(check bool) "frames carried multiple messages" true
    (rc_on.System.batched_messages > rc_on.System.batches_sent);
  Alcotest.(check bool) "delayed or piggybacked acknowledgements" true
    (rc_on.System.delayed_acks + rc_on.System.piggybacked_acks > 0);
  Alcotest.(check bool)
    (Printf.sprintf "fewer standalone acks (%d -> %d)"
       rc_off.System.acks_sent rc_on.System.acks_sent)
    true
    (rc_on.System.acks_sent < rc_off.System.acks_sent)

(* --- piggybacking on request/response traffic ---------------------- *)

(* A two-site join ships data both ways; with a flush window shorter
   than the ack delay, the response batch must carry the request's
   acknowledgement instead of a standalone ack. *)
let test_piggybacked_acks () =
  let plan = join_plan () in
  let _, _, rc = run_plan ~flush_ms:2.0 ~ack_delay_ms:20.0 plan in
  Alcotest.(check bool) "some acks rode on reverse batches" true
    (rc.System.piggybacked_acks > 0)

(* --- within-frame transfer sharing --------------------------------- *)

let test_dedup_in_flight () =
  let plan =
    List.assoc "duplicate-transfer"
      (Test_rules_exec.base_plans
         (snd (Test_rules_exec.build_system ())))
  in
  let out_off, fp_off, _ = run_plan plan in
  let out_on, fp_on, rc_on = run_plan ~flush_ms:2.0 ~ack_delay_ms:8.0 plan in
  Alcotest.(check string) "same Σ fingerprint" fp_off fp_on;
  Alcotest.(check bool) "identical payload shipped once" true
    (rc_on.System.dedup_shared_bytes > 0);
  Alcotest.(check bool) "dedup shows up as fewer bytes" true
    (out_on.Exec.stats.Net.Stats.bytes < out_off.Exec.stats.Net.Stats.bytes)

(* --- faults: retransmission re-batches ----------------------------- *)

let test_batched_retransmission () =
  let harsh =
    Fault.make
      ~profile:{ Fault.drop = 0.3; duplicate = 0.05; jitter_ms = 2.0 }
      ~quiet_after_ms:400.0 ~seed:7 ()
  in
  let _, texts_ref, fp_ref, _ = run_stream () in
  let _, texts, fp, rc =
    run_stream ~flush_ms:2.0 ~ack_delay_ms:8.0 ~fault:harsh ()
  in
  Alcotest.(check bool) "frames were retransmitted" true
    (rc.System.retransmits > 0);
  Alcotest.(check (list string)) "stream intact despite drops" texts_ref texts;
  Alcotest.(check string) "same Σ fingerprint" fp_ref fp

let suite =
  [
    ("batch frame byte accounting", `Quick, test_batch_bytes);
    ("batch dedup back-references", `Quick, test_batch_dedup);
    ("0/0 knobs: bare frames, one per message", `Quick, test_zero_knobs_ship_bare);
    ("ack departs before the handler runs", `Quick, test_ack_before_dispatch);
    ("coalescing cuts messages and bytes", `Quick, test_coalescing_reduces_messages);
    ("acks piggyback on reverse batches", `Quick, test_piggybacked_acks);
    ("identical forests dedup within a frame", `Quick, test_dedup_in_flight);
    ("retransmission re-batches pending messages", `Quick, test_batched_retransmission);
  ]
