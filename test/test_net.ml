open Axml
open Helpers

let test_peer_id () =
  Alcotest.(check string) "roundtrip" "p1"
    (Net.Peer_id.to_string (Net.Peer_id.of_string "p1"));
  List.iter
    (fun s ->
      match Net.Peer_id.of_string s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "should reject %S" s)
    [ ""; "a@b"; "a b"; "a\nb" ]

let test_link () =
  let l = Net.Link.make ~latency_ms:10.0 ~bandwidth_bytes_per_ms:100.0 in
  Alcotest.(check (float 0.001)) "latency only" 10.0
    (Net.Link.transfer_ms l ~bytes:0);
  Alcotest.(check (float 0.001)) "affine" 20.0
    (Net.Link.transfer_ms l ~bytes:1000);
  Alcotest.(check bool) "local is fast" true
    (Net.Link.transfer_ms Net.Link.local ~bytes:1_000_000 < 0.01);
  (match Net.Link.make ~latency_ms:(-1.0) ~bandwidth_bytes_per_ms:1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative latency");
  match Net.Link.make ~latency_ms:1.0 ~bandwidth_bytes_per_ms:0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero bandwidth"

let test_pqueue_order () =
  let q = Net.Pqueue.create () in
  Net.Pqueue.push q ~time:3.0 "c";
  Net.Pqueue.push q ~time:1.0 "a";
  Net.Pqueue.push q ~time:2.0 "b";
  let pop () = Option.map snd (Net.Pqueue.pop q) in
  Alcotest.(check (option string)) "first" (Some "a") (pop ());
  Alcotest.(check (option string)) "second" (Some "b") (pop ());
  Alcotest.(check (option string)) "third" (Some "c") (pop ());
  Alcotest.(check (option string)) "empty" None (pop ())

let test_pqueue_fifo_at_equal_times () =
  let q = Net.Pqueue.create () in
  List.iter (fun s -> Net.Pqueue.push q ~time:1.0 s) [ "x"; "y"; "z" ];
  let order = List.init 3 (fun _ -> snd (Option.get (Net.Pqueue.pop q))) in
  Alcotest.(check (list string)) "insertion order" [ "x"; "y"; "z" ] order

let test_pqueue_interleaved () =
  let q = Net.Pqueue.create () in
  Net.Pqueue.push q ~time:5.0 5;
  Net.Pqueue.push q ~time:1.0 1;
  Alcotest.(check (option (float 0.0))) "peek" (Some 1.0) (Net.Pqueue.peek_time q);
  ignore (Net.Pqueue.pop q);
  Net.Pqueue.push q ~time:3.0 3;
  Net.Pqueue.push q ~time:2.0 2;
  let rec drain acc =
    match Net.Pqueue.pop q with
    | None -> List.rev acc
    | Some (_, v) -> drain (v :: acc)
  in
  Alcotest.(check (list int)) "sorted drain" [ 2; 3; 5 ] (drain []);
  Alcotest.(check int) "length zero" 0 (Net.Pqueue.length q);
  match Net.Pqueue.push q ~time:Float.nan 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "NaN time"

let test_topology_mesh () =
  let t = mesh [ "a"; "b"; "c" ] in
  let a = peer "a" and b = peer "b" in
  Alcotest.(check int) "peers" 3 (List.length (Net.Topology.peers t));
  Alcotest.(check bool) "loopback is local" true
    (Net.Link.equal (Net.Topology.link t ~src:a ~dst:a) Net.Link.local);
  Alcotest.(check (float 0.001)) "mesh link" 10.0
    (Net.Topology.link t ~src:a ~dst:b).Net.Link.latency_ms;
  match Net.Topology.link t ~src:a ~dst:(peer "ghost") with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown peer"

let test_topology_override () =
  let t = mesh [ "a"; "b" ] in
  let a = peer "a" and b = peer "b" in
  let fast = Net.Link.make ~latency_ms:1.0 ~bandwidth_bytes_per_ms:1000.0 in
  let t = Net.Topology.override t ~src:a ~dst:b fast in
  Alcotest.(check (float 0.001)) "overridden" 1.0
    (Net.Topology.link t ~src:a ~dst:b).Net.Link.latency_ms;
  Alcotest.(check (float 0.001)) "reverse untouched" 10.0
    (Net.Topology.link t ~src:b ~dst:a).Net.Link.latency_ms

let test_topology_star () =
  let hub = peer "hub" and s1 = peer "s1" and s2 = peer "s2" in
  let spoke = Net.Link.make ~latency_ms:5.0 ~bandwidth_bytes_per_ms:100.0 in
  let t = Net.Topology.star ~hub ~spoke_link:spoke [ hub; s1; s2 ] in
  Alcotest.(check (float 0.001)) "hub-spoke" 5.0
    (Net.Topology.link t ~src:hub ~dst:s1).Net.Link.latency_ms;
  Alcotest.(check (float 0.001)) "spoke-spoke doubled" 10.0
    (Net.Topology.link t ~src:s1 ~dst:s2).Net.Link.latency_ms

let test_topology_ring () =
  let ps = List.map peer [ "r0"; "r1"; "r2"; "r3" ] in
  let hop = Net.Link.make ~latency_ms:2.0 ~bandwidth_bytes_per_ms:100.0 in
  let t = Net.Topology.ring ~hop_link:hop ps in
  let nth = List.nth ps in
  Alcotest.(check (float 0.001)) "adjacent" 2.0
    (Net.Topology.link t ~src:(nth 0) ~dst:(nth 1)).Net.Link.latency_ms;
  Alcotest.(check (float 0.001)) "across" 4.0
    (Net.Topology.link t ~src:(nth 0) ~dst:(nth 2)).Net.Link.latency_ms;
  Alcotest.(check (float 0.001)) "wraparound" 2.0
    (Net.Topology.link t ~src:(nth 0) ~dst:(nth 3)).Net.Link.latency_ms

let test_topology_clustered () =
  let a0 = peer "a0" and a1 = peer "a1" and b0 = peer "b0" in
  let intra = Net.Link.make ~latency_ms:1.0 ~bandwidth_bytes_per_ms:1000.0 in
  let inter = Net.Link.make ~latency_ms:50.0 ~bandwidth_bytes_per_ms:10.0 in
  let t = Net.Topology.clustered ~intra ~inter [ [ a0; a1 ]; [ b0 ] ] in
  Alcotest.(check (float 0.001)) "intra" 1.0
    (Net.Topology.link t ~src:a0 ~dst:a1).Net.Link.latency_ms;
  Alcotest.(check (float 0.001)) "inter" 50.0
    (Net.Topology.link t ~src:a0 ~dst:b0).Net.Link.latency_ms

let test_sim_delivery_and_time () =
  let t = mesh ~latency:10.0 ~bandwidth:100.0 [ "a"; "b" ] in
  let sim = Net.Sim.create t in
  let a = peer "a" and b = peer "b" in
  let got = ref [] in
  Net.Sim.set_handler sim b (fun ~src msg ->
      got := (Net.Peer_id.to_string src, msg, Net.Sim.now sim) :: !got);
  Net.Sim.set_handler sim a (fun ~src:_ _ -> ());
  ignore (Net.Sim.send sim ~src:a ~dst:b ~bytes:1000 "hello");
  ignore (Net.Sim.run sim);
  match !got with
  | [ (src, msg, time) ] ->
      Alcotest.(check string) "src" "a" src;
      Alcotest.(check string) "payload" "hello" msg;
      Alcotest.(check (float 0.001)) "arrival = latency + size/bw" 20.0 time
  | _ -> Alcotest.fail "one delivery expected"

let test_sim_chained_sends () =
  let t = mesh ~latency:10.0 ~bandwidth:100.0 [ "a"; "b"; "c" ] in
  let sim = Net.Sim.create t in
  let a = peer "a" and b = peer "b" and c = peer "c" in
  let arrived = ref None in
  Net.Sim.set_handler sim b (fun ~src:_ msg ->
      ignore (Net.Sim.send sim ~src:b ~dst:c ~bytes:0 (msg ^ "-relayed")));
  Net.Sim.set_handler sim c (fun ~src:_ msg ->
      arrived := Some (msg, Net.Sim.now sim));
  ignore (Net.Sim.send sim ~src:a ~dst:b ~bytes:0 "m");
  ignore (Net.Sim.run sim);
  (match !arrived with
  | Some (msg, time) ->
      Alcotest.(check string) "relayed" "m-relayed" msg;
      Alcotest.(check (float 0.001)) "two hops" 20.0 time
  | None -> Alcotest.fail "no arrival");
  let snap = Net.Stats.snapshot (Net.Sim.stats sim) in
  Alcotest.(check int) "two messages" 2 snap.messages

let test_sim_cpu_busy_delays_sends () =
  let t = mesh ~latency:10.0 ~bandwidth:100.0 [ "a"; "b" ] in
  let sim = Net.Sim.create t in
  let a = peer "a" and b = peer "b" in
  let time = ref 0.0 in
  Net.Sim.set_handler sim b (fun ~src:_ () -> time := Net.Sim.now sim);
  Net.Sim.consume_cpu sim ~peer:a ~ms:5.0;
  ignore (Net.Sim.send sim ~src:a ~dst:b ~bytes:0 ());
  ignore (Net.Sim.run sim);
  Alcotest.(check (float 0.001)) "departure delayed by busy peer" 15.0 !time

let test_sim_timer () =
  let t = mesh [ "a" ] in
  let sim = Net.Sim.create t in
  let fired = ref (-1.0) in
  Net.Sim.after sim ~peer:(peer "a") ~delay_ms:42.0 (fun () ->
      fired := Net.Sim.now sim);
  ignore (Net.Sim.run sim);
  Alcotest.(check (float 0.001)) "timer time" 42.0 !fired

let test_sim_no_handler () =
  (* A message to a handler-less peer is a routable fault, counted as
     a drop — not an abort. *)
  let t = mesh [ "a"; "b" ] in
  let sim = Net.Sim.create t in
  ignore (Net.Sim.send sim ~src:(peer "a") ~dst:(peer "b") ~bytes:0 ());
  let outcome, _ = Net.Sim.run sim in
  Alcotest.(check bool) "quiescent" true (outcome = `Quiescent);
  let snap = Net.Stats.snapshot (Net.Sim.stats sim) in
  Alcotest.(check int) "counted as drop" 1 snap.drops;
  Alcotest.(check int) "still counted as sent" 1 snap.messages

let test_sim_crash_drops_and_restart_delivers () =
  let t = mesh [ "a"; "b" ] in
  let sim = Net.Sim.create t in
  let a = peer "a" and b = peer "b" in
  let got = ref 0 in
  Net.Sim.set_handler sim b (fun ~src:_ () -> incr got);
  Net.Sim.set_handler sim a (fun ~src:_ () -> ());
  Net.Sim.crash sim b;
  Alcotest.(check bool) "unreachable while down" false
    (Net.Sim.reachable sim ~src:a ~dst:b);
  ignore (Net.Sim.send sim ~src:a ~dst:b ~bytes:8 ());
  ignore (Net.Sim.run sim);
  Alcotest.(check int) "nothing delivered" 0 !got;
  Alcotest.(check int) "drop counted" 1
    (Net.Stats.snapshot (Net.Sim.stats sim)).drops;
  Net.Sim.restart sim b;
  Alcotest.(check bool) "reachable again" true
    (Net.Sim.reachable sim ~src:a ~dst:b);
  ignore (Net.Sim.send sim ~src:a ~dst:b ~bytes:8 ());
  ignore (Net.Sim.run sim);
  Alcotest.(check int) "delivered after restart" 1 !got

let test_sim_crashed_timer_discarded () =
  let t = mesh [ "a" ] in
  let sim = Net.Sim.create t in
  let a = peer "a" in
  let fired = ref false in
  Net.Sim.after sim ~peer:a ~delay_ms:5.0 (fun () -> fired := true);
  Net.Sim.crash sim a;
  ignore (Net.Sim.run sim);
  Alcotest.(check bool) "timer died with the peer" false !fired

let test_fault_outage_window () =
  let t = mesh ~latency:1.0 ~bandwidth:1000.0 [ "a"; "b" ] in
  let sim = Net.Sim.create t in
  let a = peer "a" and b = peer "b" in
  let got = ref 0 in
  Net.Sim.set_handler sim b (fun ~src:_ () -> incr got);
  Net.Sim.set_handler sim a (fun ~src:_ () -> ());
  Net.Sim.inject sim
    (Net.Fault.make ~seed:1
       ~events:
         [
           Net.Fault.Link_down
             {
               src = a;
               dst = b;
               window = Net.Fault.window ~from_ms:0.0 ~until_ms:10.0;
             };
         ]
       ());
  ignore (Net.Sim.send sim ~src:a ~dst:b ~bytes:0 ());
  (* Inside the window: cut. *)
  ignore (Net.Sim.run sim);
  Alcotest.(check int) "cut during outage" 0 !got;
  Net.Sim.after sim ~peer:a ~delay_ms:20.0 (fun () ->
      ignore (Net.Sim.send sim ~src:a ~dst:b ~bytes:0 ()));
  ignore (Net.Sim.run sim);
  Alcotest.(check int) "delivered after outage" 1 !got

let test_fault_deterministic_verdicts () =
  let peers = [ peer "a"; peer "b"; peer "c" ] in
  let run () =
    let plan = Net.Fault.random ~seed:77 peers in
    let st = Net.Fault.attach plan in
    List.init 200 (fun i ->
        match
          Net.Fault.on_send st
            ~now:(float_of_int i *. 2.0)
            ~src:(peer "a") ~dst:(peer "b")
        with
        | Net.Fault.Dropped -> "drop"
        | Net.Fault.Deliver { jitters_ms } ->
            String.concat ","
              (List.map (Printf.sprintf "%.6f") jitters_ms))
  in
  Alcotest.(check bool) "same seed, same verdicts" true (run () = run ());
  let differs =
    Net.Fault.random ~seed:77 peers <> Net.Fault.random ~seed:78 peers
  in
  Alcotest.(check bool) "different seeds differ" true differs

let test_sim_max_events_guard () =
  let t = mesh [ "a" ] in
  let sim = Net.Sim.create t in
  let a = peer "a" in
  (* A self-perpetuating loop, cut by the guard. *)
  Net.Sim.set_handler sim a (fun ~src:_ () ->
      ignore (Net.Sim.send sim ~src:a ~dst:a ~bytes:0 ()));
  ignore (Net.Sim.send sim ~src:a ~dst:a ~bytes:0 ());
  let outcome, processed = Net.Sim.run ~max_events:100 sim in
  Alcotest.(check bool) "budget exhausted" true (outcome = `Budget_exhausted);
  Alcotest.(check int) "processed up to the guard" 100 processed;
  Alcotest.(check bool) "stopped" true (Net.Sim.pending sim > 0)

let test_stats_per_link () =
  let t = mesh [ "a"; "b" ] in
  let sim = Net.Sim.create t in
  let a = peer "a" and b = peer "b" in
  Net.Sim.set_handler sim b (fun ~src:_ () -> ());
  Net.Sim.set_handler sim a (fun ~src:_ () -> ());
  ignore (Net.Sim.send sim ~src:a ~dst:b ~bytes:100 ());
  ignore (Net.Sim.send sim ~src:a ~dst:b ~bytes:50 ());
  ignore (Net.Sim.send sim ~src:a ~dst:a ~bytes:999 ());
  ignore (Net.Sim.run sim);
  let snap = Net.Stats.snapshot (Net.Sim.stats sim) in
  Alcotest.(check int) "remote messages" 2 snap.messages;
  Alcotest.(check int) "bytes" 150 snap.bytes;
  Alcotest.(check int) "local messages" 1 snap.local_messages;
  match snap.per_link with
  | [ ((src, dst), (m, bytes)) ] ->
      Alcotest.(check string) "link src" "a" (Net.Peer_id.to_string src);
      Alcotest.(check string) "link dst" "b" (Net.Peer_id.to_string dst);
      Alcotest.(check int) "link messages" 2 m;
      Alcotest.(check int) "link bytes" 150 bytes
  | _ -> Alcotest.fail "one remote link expected"

let test_fifo_per_link () =
  (* Messages of equal size on one link arrive in send order. *)
  let t = mesh ~latency:5.0 ~bandwidth:100.0 [ "a"; "b" ] in
  let sim = Net.Sim.create t in
  let a = peer "a" and b = peer "b" in
  let received = ref [] in
  Net.Sim.set_handler sim b (fun ~src:_ i -> received := i :: !received);
  for i = 1 to 10 do
    ignore (Net.Sim.send sim ~src:a ~dst:b ~bytes:100 i)
  done;
  ignore (Net.Sim.run sim);
  Alcotest.(check (list int)) "in order" (List.init 10 (fun i -> i + 1))
    (List.rev !received)

let test_deterministic_runs () =
  (* Two identical simulations produce identical delivery logs. *)
  let run () =
    let t = mesh [ "a"; "b"; "c" ] in
    let sim = Net.Sim.create t in
    let log = ref [] in
    List.iter
      (fun p ->
        Net.Sim.set_handler sim (peer p) (fun ~src msg ->
            log :=
              (p, Net.Peer_id.to_string src, msg, Net.Sim.now sim) :: !log;
            if msg < 3 then
              ignore
                (Net.Sim.send sim ~src:(peer p)
                   ~dst:(peer (if p = "b" then "c" else "b"))
                   ~bytes:(50 * msg) (msg + 1))))
      [ "a"; "b"; "c" ];
    ignore (Net.Sim.send sim ~src:(peer "a") ~dst:(peer "b") ~bytes:10 1);
    ignore (Net.Sim.run sim);
    List.rev !log
  in
  Alcotest.(check bool) "identical logs" true (run () = run ())

let suite =
  [
    ("peer id validation", `Quick, test_peer_id);
    ("per-link FIFO", `Quick, test_fifo_per_link);
    ("deterministic simulation", `Quick, test_deterministic_runs);
    ("link cost model", `Quick, test_link);
    ("pqueue ordering", `Quick, test_pqueue_order);
    ("pqueue FIFO at equal time", `Quick, test_pqueue_fifo_at_equal_times);
    ("pqueue interleaved", `Quick, test_pqueue_interleaved);
    ("mesh topology", `Quick, test_topology_mesh);
    ("topology override", `Quick, test_topology_override);
    ("star topology", `Quick, test_topology_star);
    ("ring topology", `Quick, test_topology_ring);
    ("clustered topology", `Quick, test_topology_clustered);
    ("sim delivery and virtual time", `Quick, test_sim_delivery_and_time);
    ("sim chained sends", `Quick, test_sim_chained_sends);
    ("sim cpu busy time", `Quick, test_sim_cpu_busy_delays_sends);
    ("sim timers", `Quick, test_sim_timer);
    ("sim missing handler drops", `Quick, test_sim_no_handler);
    ("sim crash and restart", `Quick, test_sim_crash_drops_and_restart_delivers);
    ("sim crashed timer discarded", `Quick, test_sim_crashed_timer_discarded);
    ("fault outage window", `Quick, test_fault_outage_window);
    ("fault deterministic verdicts", `Quick, test_fault_deterministic_verdicts);
    ("sim runaway guard", `Quick, test_sim_max_events_guard);
    ("per-link statistics", `Quick, test_stats_per_link);
  ]
