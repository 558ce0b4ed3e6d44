(* The Reliable transport's sequenced window (DESIGN.md §13).

   One window per direction carries every sequenced message.  At the
   0.0 defaults of [flush_ms]/[ack_delay_ms] each message ships bare
   the moment it is sent and is acked the moment it arrives, before
   its handler runs.  With the knobs raised, coalescing must cut
   physical message counts (and the fixed envelope cost) and delayed
   acks must be piggybacked on reverse traffic or fired standalone —
   all without changing the delivered results or the final Σ. *)

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

(* An interleaved frame of eight messages: two shapes, three carriers
   each (the original, the same forest by pointer and a re-parse with
   fresh ids), an item with no forest and one whose forest is empty.
   Every message is one item, in send order, charged in full. *)
let test_batch_items_whole () =
  let g = gen () in
  let xml_a = "<item k=\"y\"><name>alpha</name></item>" in
  let xml_b = "<item k=\"y\"><name>beta</name></item>" in
  let fa = [ parse ~g xml_a ] and fb = [ parse ~g xml_b ] in
  let fa' = [ parse ~g xml_a ] and fb' = [ parse ~g xml_b ] in
  Alcotest.(check bool) "the re-parse has fresh ids" false
    (List.equal Xml.Tree.equal_strict fa fa');
  let node = Xml.Node_id.Gen.fresh g in
  let stream seq forest =
    Message.make ~seq (Message.Stream { key = 7; forest; final = false })
  in
  let frame =
    [
      stream 1 fa;
      stream 2 fb;
      Message.make ~seq:3 (Message.Retract_doc { name = "d"; notify = None });
      Message.make ~seq:4 (Message.Insert { node; forest = fa; notify = None });
      stream 5 [];
      Message.make ~seq:6
        (Message.Install_doc { name = "d"; forest = fb'; notify = None });
      stream 7 fa';
      stream 8 fb;
    ]
  in
  let payload = Message.batch ~ack:0 frame in
  (match payload with
  | Message.Batch { items; _ } ->
      Alcotest.(check (list int)) "one item per message, in send order"
        [ 1; 2; 3; 4; 5; 6; 7; 8 ]
        (List.map (fun (m : Message.t) -> m.seq) items);
      Alcotest.(check bool) "each item is the message sent" true
        (List.for_all2 ( == ) frame items)
  | _ -> Alcotest.fail "expected a Batch");
  Alcotest.(check int) "bytes = envelope + every item in full"
    (Message.envelope
    + List.fold_left
        (fun acc (m : Message.t) ->
          acc + Message.item_header
          + (Message.bytes m.Message.payload - Message.envelope))
        0 frame)
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
   re-ship a request that had arrived in time.  (The reply is sent
   while p2 is busy; that it ships once is the retry timer's contract,
   pinned below.) *)
let test_ack_before_dispatch () =
  let topo = mesh ~latency:10.0 ~bandwidth:1000.0 [ "p1"; "p2" ] in
  let sys =
    System.create ~transport:System.Reliable ~cpu_ms_per_kb:50.0 topo
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

(* --- the retransmission timer -------------------------------------- *)

(* The retry timer counts from a frame's expected arrival — departure
   after the sender's busy CPU, plus the link's transfer time for its
   bytes — and adds [ack_delay_ms] and the direction's RTO, which
   starts at 40 ms and then follows the measured round trip, never
   below 40 ms (DESIGN.md §12).  Fault-free, nothing ships twice,
   however slow the link, large the frame, busy the sender or long the
   exchange. *)

let timer_system ?(latency = 10.0) ?(bandwidth = 1000.0) ?wire () =
  System.create ~transport:System.Reliable ?wire
    (mesh ~latency ~bandwidth [ "p1"; "p2" ])

let run_quiescent sys =
  let outcome, _ = System.run sys in
  Alcotest.(check bool) "quiescent" true (outcome = `Quiescent)

let retransmits sys = (System.reliability_counters sys).System.retransmits

(* [rounds] request/response pairs between p1 and p2, one sequenced
   message per leg: each leg's handler sends the next leg back.
   Returns how many legs were delivered. *)
let ping_pong sys ~rounds =
  let delivered = ref 0 in
  let rec leg i =
    if i < 2 * rounds then begin
      let src, dst = if i mod 2 = 0 then (p1, p2) else (p2, p1) in
      let key = System.fresh_key sys in
      System.set_cont sys key (fun _ ~final:_ ->
          incr delivered;
          leg (i + 1));
      System.send sys ~src ~dst
        (Message.Stream { key; forest = []; final = true })
    end
  in
  leg 0;
  run_quiescent sys;
  !delivered

(* (a) A round trip of 2 × 30 ms outlasts the 40 ms initial RTO. *)
let test_timer_slow_round_trip () =
  let sys = timer_system ~latency:30.0 () in
  Alcotest.(check int) "every leg delivered" 40 (ping_pong sys ~rounds:20);
  Alcotest.(check int) "no retransmission" 0 (retransmits sys);
  Alcotest.(check int) "one frame per leg, one ack each" 80
    (System.stats sys).Net.Stats.messages

(* (b) A 20 KB frame at 100 B/ms is 200 ms on the wire. *)
let test_timer_long_transfer () =
  let sys = timer_system ~bandwidth:100.0 () in
  let key = System.fresh_key sys in
  let got = ref 0 in
  System.set_cont sys key (fun forest ~final:_ ->
      got := Xml.Forest.byte_size forest);
  let forest = [ elt (gen ()) "blob" [ txt (String.make 20_000 'x') ] ] in
  System.send sys ~src:p1 ~dst:p2
    (Message.Stream { key; forest; final = true });
  run_quiescent sys;
  Alcotest.(check int) "delivered" (Xml.Forest.byte_size forest) !got;
  Alcotest.(check bool) "the transfer outlasts the initial RTO" true
    (System.now_ms sys > 200.0);
  Alcotest.(check int) "shipped once" 0 (retransmits sys);
  Alcotest.(check int) "the frame and its ack" 2
    (System.stats sys).Net.Stats.messages

(* (c) The reply leaves only when p2's 250 ms of CPU ends. *)
let test_timer_busy_sender () =
  let sys = timer_system () in
  let sim = System.sim sys in
  let request = System.fresh_key sys and reply = System.fresh_key sys in
  let replied = ref false in
  System.set_cont sys reply (fun _ ~final:_ -> replied := true);
  System.set_cont sys request (fun _ ~final:_ ->
      Net.Sim.consume_cpu sim ~peer:p2 ~ms:250.0;
      Alcotest.(check bool) "p2's CPU horizon is 200+ ms ahead" true
        (Net.Sim.busy_until sim p2 -. Net.Sim.now sim >= 200.0);
      System.send sys ~src:p2 ~dst:p1
        (Message.Stream { key = reply; forest = []; final = true }));
  System.send sys ~src:p1 ~dst:p2
    (Message.Stream { key = request; forest = []; final = true });
  run_quiescent sys;
  Alcotest.(check bool) "replied" true !replied;
  Alcotest.(check int) "the reply shipped once" 0 (retransmits sys)

(* A 1 ms link outage at t = 0: it drops the first copy of whatever
   p1 sends at t = 0 and nothing else. *)
let lose_first_copy sys =
  System.inject_faults sys
    (Fault.make
       ~events:
         [
           Fault.Link_down
             {
               src = p1;
               dst = p2;
               window = Fault.window ~from_ms:0.0 ~until_ms:1.0;
             };
         ]
       ~seed:1 ())

(* (d) Karn's rule.  The first leg's first copy is lost.  The
   re-shipped message yields no RTT sample, so p1→p2 ends with exactly
   the RTO of a clean run that timed the same 4 later legs.  (At 30 ms
   a leg, that RTO is still above the 40 ms floor.) *)
let test_timer_karn () =
  let sys = timer_system ~latency:30.0 () in
  lose_first_copy sys;
  Alcotest.(check int) "every leg delivered" 10 (ping_pong sys ~rounds:5);
  Alcotest.(check int) "one retransmit" 1 (retransmits sys);
  (* The dropped copy is counted as a drop, not a transmission. *)
  Alcotest.(check int) "every later message shipped once" 20
    (System.stats sys).Net.Stats.messages;
  let clean = timer_system ~latency:30.0 () in
  ignore (ping_pong clean ~rounds:4);
  let rto sys = Option.get (System.rto sys ~src:p1 ~dst:p2) in
  Alcotest.(check bool) "the clean RTO is above the floor" true
    (rto clean > 40.0);
  Alcotest.(check (float 1e-6)) "RTO of the 4 once-shipped legs" (rto clean)
    (rto sys)

(* A sample starts when every earlier frame is in: a cumulative ack
   cannot cover a frame before those ahead of it have arrived, and a
   small frame overtakes a large one (the link charges no
   serialization).  At t = 0, p1 sends a small message (timed) and a
   100 KB one (100 ms on the wire, arriving at 110 ms); the first's
   ack ends its sample at 20 ms, and a small message sent at 21 ms,
   timed next, arrives at 31 ms but is acked only after the large one
   lands.  Timed from its own arrival, its sample would carry the
   79 ms wait and lift the RTO far above the 40 ms floor. *)
let test_timer_sample_waits_for_earlier_frames () =
  let sys = timer_system () in
  let sim = System.sim sys in
  let delivered = ref 0 in
  let send forest =
    let key = System.fresh_key sys in
    System.set_cont sys key (fun _ ~final:_ -> incr delivered);
    System.send sys ~src:p1 ~dst:p2 (Message.Stream { key; forest; final = true })
  in
  send [];
  send [ elt (gen ()) "blob" [ txt (String.make 100_000 'x') ] ];
  Net.Sim.after sim ~peer:p1 ~delay_ms:21.0 (fun () -> send []);
  run_quiescent sys;
  Alcotest.(check int) "all three delivered" 3 !delivered;
  Alcotest.(check int) "no retransmission" 0 (retransmits sys);
  Alcotest.(check (option (float 1e-6))) "the RTO stays at the floor"
    (Some 40.0)
    (System.rto sys ~src:p1 ~dst:p2)

(* (e) A fresh frame joining a busy window leaves its timer running:
   ten new messages, 20 ms apart, must not postpone the re-ship of the
   lost first one past its own deadline (its arrival at ~10 ms plus the
   40 ms initial RTO). *)
let test_timer_fresh_frames_do_not_postpone () =
  let sys = timer_system () in
  lose_first_copy sys;
  let sim = System.sim sys in
  let first_at = ref infinity in
  for i = 0 to 10 do
    Net.Sim.after sim ~peer:p1 ~delay_ms:(20.0 *. float_of_int i) (fun () ->
        let key = System.fresh_key sys in
        System.set_cont sys key (fun _ ~final:_ ->
            if i = 0 then first_at := Net.Sim.now sim);
        System.send sys ~src:p1 ~dst:p2
          (Message.Stream { key; forest = []; final = true }))
  done;
  run_quiescent sys;
  Alcotest.(check int) "one retransmit" 1 (retransmits sys);
  Alcotest.(check bool)
    (Printf.sprintf "the lost message arrived by 100 ms (%.1f)" !first_at)
    true (!first_at < 100.0)

(* (f) A long exchange on the Binary wire.  Equal samples shrink
   [rttvar] towards zero, and at seq 64 the standalone ack grows by a
   byte (zigzag varint): without the RTO's floor, the first ack that
   comes back a hair later than the one before loses to the timer. *)
let test_timer_long_exchange () =
  let sys = timer_system ~wire:System.Binary () in
  Alcotest.(check int) "every leg delivered" 300 (ping_pong sys ~rounds:150);
  Alcotest.(check int) "no retransmission" 0 (retransmits sys)

(* (g) The estimator is volatile, the sequence cursors durable, and a
   crash touches only the crashed peer's windows: p2's estimator of
   its window toward p1 keeps what it learned. *)
let test_timer_crash_resets_estimator () =
  let sys = timer_system ~latency:30.0 () in
  Alcotest.(check int) "before: every leg delivered" 10
    (ping_pong sys ~rounds:5);
  let rto () = System.rto sys ~src:p1 ~dst:p2 in
  let live () = System.rto sys ~src:p2 ~dst:p1 in
  Alcotest.(check bool) "the RTO was learned" true (rto () <> Some 40.0);
  let learned = live () in
  Alcotest.(check bool) "the live side's RTO was learned" true
    (learned <> Some 40.0);
  System.crash sys p1;
  System.restart sys p1;
  Alcotest.(check (option (float 0.0))) "a crash resets the RTO" (Some 40.0)
    (rto ());
  Alcotest.(check (option (float 0.0))) "the live side's RTO is unchanged"
    learned (live ());
  Alcotest.(check int) "after: every leg delivered" 10
    (ping_pong sys ~rounds:5);
  let rc = System.reliability_counters sys in
  Alcotest.(check int) "no duplicate suppressed" 0 rc.System.dup_suppressed;
  Alcotest.(check int) "no retransmission" 0 rc.System.retransmits

let suite =
  [
    ("batch frame byte accounting", `Quick, test_batch_bytes);
    ("batch frames carry each message whole", `Quick, test_batch_items_whole);
    ("0/0 knobs: bare frames, one per message", `Quick, test_zero_knobs_ship_bare);
    ("ack departs before the handler runs", `Quick, test_ack_before_dispatch);
    ("coalescing cuts messages and bytes", `Quick, test_coalescing_reduces_messages);
    ("acks piggyback on reverse batches", `Quick, test_piggybacked_acks);
    ("retransmission re-batches pending messages", `Quick, test_batched_retransmission);
    ("timer: a round trip above the initial RTO", `Quick, test_timer_slow_round_trip);
    ("timer: a transfer above the initial RTO", `Quick, test_timer_long_transfer);
    ("timer: a reply behind 250 ms of CPU", `Quick, test_timer_busy_sender);
    ("timer: Karn, a re-shipped message gives no sample", `Quick, test_timer_karn);
    ("timer: a sample waits for the frames ahead of it", `Quick,
      test_timer_sample_waits_for_earlier_frames);
    ("timer: fresh frames do not postpone a re-ship", `Quick,
      test_timer_fresh_frames_do_not_postpone);
    ("timer: a crash resets the estimator, not the cursors", `Quick,
      test_timer_crash_resets_estimator);
    ("timer: 150 Binary round trips ship once", `Quick, test_timer_long_exchange);
  ]
