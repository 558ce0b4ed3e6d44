(* Chaos and failover suite (DESIGN.md §12).

   The V-series plans of test_rules_exec.ml are re-run here under
   randomized fault plans with eventual connectivity.  The property:
   with the [Reliable] transport, a faulty run must reach quiescence
   with the same canonical results and the same Σ fingerprint as the
   fault-free run — faults may cost time and bytes, never answers.
   The [Raw] ablation shows the property is earned by the protocol,
   not vacuous: under the same fault plans, raw datagrams lose data.

   Crash/recovery is covered by directed tests (random plans never
   contain crashes: a crash wipes volatile continuations, so result
   equality is not a theorem there — durability of documents is). *)

open Axml
open Helpers
module Expr = Algebra.Expr
module Names = Doc.Names
module System = Runtime.System
module Exec = Runtime.Exec
module Fault = Net.Fault

let p1 = peer "p1"
let p2 = peer "p2"
let p3 = peer "p3"
let all_peers = [ p1; p2; p3 ]

(* The shared base plans, and their fault-free Reliable reference
   outcomes.  The reference must itself run over [Reliable]: in-order
   buffering can normalize cross-message delivery order, so Raw and
   Reliable are compared each against their own transport's baseline. *)
let plans =
  lazy
    (let _, inbox_id = Test_rules_exec.build_system () in
     Test_rules_exec.base_plans inbox_id)

let run_reliable ?fault plan =
  let sys, _ = Test_rules_exec.build_system ~transport:System.Reliable () in
  Option.iter (System.inject_faults sys) fault;
  let out = Exec.run_to_quiescence sys ~ctx:p1 plan in
  (out, System.fingerprint sys)

let reference =
  lazy
    (List.map
       (fun (name, plan) -> (name, run_reliable plan))
       (Lazy.force plans))

let agrees ~(reference : Exec.outcome * string) (out : Exec.outcome) fp =
  let ref_out, ref_fp = reference in
  out.termination = `Quiescent && out.finished
  && Xml.Canonical.equal_forest ref_out.results out.results
  && String.equal ref_fp fp

(* --- the chaos property ------------------------------------------- *)

(* At the default knobs ([flush_ms = ack_delay_ms = 0]) the sequenced
   window ships each message the moment it is sent, bare, and the
   receiver acks it the moment it arrives: go-back-N retransmission,
   cumulative acks and in-order buffering are all that stands between
   the fault plan and the answer. *)
let chaos_arb =
  let n = List.length (Lazy.force plans) in
  QCheck.make
    ~print:(fun (idx, seed) ->
      Printf.sprintf "plan=%s seed=%d" (fst (List.nth (Lazy.force plans) idx)) seed)
    QCheck.Gen.(pair (int_bound (n - 1)) (int_bound 99_999))

let chaos_property =
  QCheck.Test.make ~count:200
    ~name:"reliable runs match the fault-free Σ under random faults" chaos_arb
    (fun (idx, seed) ->
      let name, plan = List.nth (Lazy.force plans) idx in
      let out, fp =
        run_reliable ~fault:(Fault.random ~seed all_peers) plan
      in
      agrees ~reference:(List.assoc name (Lazy.force reference)) out fp)

(* --- the chaos property, coalescing window --------------------------- *)

(* Same property with the window's knobs raised: random coalescing
   windows and ack delays on top of random faults must still reproduce
   the fault-free forest and Σ fingerprint.  Knob value 0/0 is
   excluded by construction (that is the default-knob property above);
   the arrays mix flush-only, ack-delay-only and combined
   configurations. *)
let flush_choices = [| 0.0; 0.5; 2.0; 5.0 |]
let ack_choices = [| 1.0; 8.0; 20.0 |]

let batched_chaos_arb =
  let n = List.length (Lazy.force plans) in
  let knobs (ki : int) =
    (* 0..11: flush x ack, plus pure-flush rows with ack 0. *)
    if ki < Array.length flush_choices - 1 then (flush_choices.(ki + 1), 0.0)
    else
      let ki = ki - (Array.length flush_choices - 1) in
      (flush_choices.(ki / 3), ack_choices.(ki mod 3))
  in
  let n_knobs = Array.length flush_choices - 1 + (Array.length flush_choices * 3) in
  QCheck.make
    ~print:(fun (idx, seed, ki) ->
      let f, a = knobs ki in
      Printf.sprintf "plan=%s seed=%d flush_ms=%g ack_delay_ms=%g"
        (fst (List.nth (Lazy.force plans) idx))
        seed f a)
    QCheck.Gen.(
      triple (int_bound (n - 1)) (int_bound 99_999) (int_bound (n_knobs - 1)))
  |> fun arb -> (arb, knobs)

let batched_chaos_property =
  let arb, knobs = batched_chaos_arb in
  QCheck.Test.make ~count:200
    ~name:"batched reliable runs match the fault-free Σ under random faults"
    arb
    (fun (idx, seed, ki) ->
      let name, plan = List.nth (Lazy.force plans) idx in
      let flush_ms, ack_delay_ms = knobs ki in
      let sys, _ =
        Test_rules_exec.build_system ~transport:System.Reliable ~flush_ms
          ~ack_delay_ms ()
      in
      System.inject_faults sys (Fault.random ~seed all_peers);
      let out = Exec.run_to_quiescence sys ~ctx:p1 plan in
      agrees
        ~reference:(List.assoc name (Lazy.force reference))
        out (System.fingerprint sys))

(* --- the chaos property, adaptive placement ------------------------ *)

(* The placement controller mutates live state — forwarding links,
   replica installs, class registrations — so it gets its own chaos
   property over the hotspot workload: with the controller ON, under
   random drops, a partition and two crash/restart cycles, the run
   must still quiesce with the {e static-placement fault-free} Σ
   content fingerprint ([System.content_fingerprint] collapses
   identical replicas, so converged copies are invisible and any
   lost, duplicated or stalled append is not).

   The hotspot's contents and appends are functions of the document
   index, but {e which} documents receive appends is the seed-chosen
   hot set — so the reference is computed per hotspot seed.

   Fault-plan shape: probabilistic faults quiet by 400 ms, crashes at
   2000/2600 ms.  The gap is deliberate: a message dropped before the
   quiet line has retried successfully by quiet + the longest single
   retry wait (1280 ms past its frame's expected arrival plus
   ack_delay_ms; transfers here take tens of ms), so no crash can wipe
   a pending retransmission whose sequence number the receiver still
   awaits — the one race the WAL-modelled transport cannot heal
   (durable cursors, volatile in-flight state).  Within that
   discipline, result equality under crashes is a theorem; the
   directed placement tests cover the crash-mid-handoff races
   themselves. *)

module Placement = Runtime.Placement
module Scenarios = Workload.Scenarios
module Rng = Net.Rng
module Ts = Obs.Timeseries

let hotspot_shape ~steered ~seed () =
  Scenarios.hotspot ~owners:3 ~spares:2 ~readers:4 ~docs:8 ~hot_fraction:0.15
    ~hot_share:0.9 ~reads_per_reader:6 ~appends:6 ~append_every_ms:300.0
    ~payload_bytes:512 ~think_ms:2.0 ~arrival_window_ms:100.0 ~steered ~seed ()

let placement_reference_fp hotspot_seed =
  (* Static placement, fault-free, telemetry off: readers spread by
     seeded [Random], nothing migrates. *)
  let hs = hotspot_shape ~steered:false ~seed:hotspot_seed () in
  let out, _ = System.run hs.Scenarios.hs_system in
  Alcotest.(check bool) "reference quiescent" true (out = `Quiescent);
  System.content_fingerprint hs.Scenarios.hs_system

let placement_chaos_plan ~seed (hs : Scenarios.hotspot) =
  let r = Rng.create ~seed:((seed * 31) + 5) in
  let storage = hs.Scenarios.hs_owners @ hs.Scenarios.hs_spares in
  let profile =
    {
      Fault.drop = 0.15 *. Net.Rng.float r 1.0;
      duplicate = 0.05 *. Net.Rng.float r 1.0;
      jitter_ms = 3.0 *. Net.Rng.float r 1.0;
    }
  in
  let island = [ List.nth storage (Rng.int r (List.length storage)) ] in
  let victims = Rng.shuffle r storage in
  Fault.make ~profile
    ~events:
      [
        Fault.Partition
          { island; window = Fault.window ~from_ms:100.0 ~until_ms:250.0 };
        Fault.Crash
          { peer = List.nth victims 0; at_ms = 2000.0; restart_ms = Some 2250.0 };
        Fault.Crash
          { peer = List.nth victims 1; at_ms = 2600.0; restart_ms = Some 2850.0 };
      ]
    ~quiet_after_ms:400.0 ~seed ()

(* Accumulated across all 200 cases; a vacuous property (controller
   never fires) must fail, not pass silently. *)
let placement_migrations_seen = ref 0

let placement_chaos_case (hotspot_seed, fault_seed) =
  let reference = placement_reference_fp hotspot_seed in
  let reg = Ts.default in
  Ts.set_window reg 10.0;
  Ts.set_enabled reg true;
  Fun.protect
    ~finally:(fun () ->
      Ts.set_enabled reg false;
      Ts.set_window reg 100.0)
    (fun () ->
      let hs = hotspot_shape ~steered:true ~seed:hotspot_seed () in
      let sys = hs.Scenarios.hs_system in
      let _fo = Runtime.Failover.enable sys in
      let storage = hs.Scenarios.hs_owners @ hs.Scenarios.hs_spares in
      let ctl =
        Placement.enable
          ~cfg:
            {
              Placement.default_config with
              tick_ms = 20.0;
              windows = 2;
              hot_rate = 20.0;
              migrations_per_tick = 2;
              handoff_timeout_ms = 500.0;
              seed = hotspot_seed + 99;
              eligible =
                Some (fun p -> List.exists (Net.Peer_id.equal p) storage);
            }
          sys
      in
      System.inject_faults sys (placement_chaos_plan ~seed:fault_seed hs);
      let out, _ = System.run sys in
      placement_migrations_seen :=
        !placement_migrations_seen + (Placement.stats ctl).Placement.s_started;
      out = `Quiescent && String.equal reference (System.content_fingerprint sys))

let placement_chaos_arb =
  QCheck.make
    ~print:(fun (hs, fs) -> Printf.sprintf "hotspot_seed=%d fault_seed=%d" hs fs)
    QCheck.Gen.(pair (int_bound 99_999) (int_bound 99_999))

let placement_chaos_property =
  QCheck.Test.make ~count:200
    ~name:
      "adaptive placement under drops/partitions/crashes matches the static \
       fault-free Σ content"
    placement_chaos_arb placement_chaos_case

(* --- Raw ablation -------------------------------------------------- *)

(* A harsh but eventually-quiet profile.  Reliable must still converge
   on every seed; Raw must diverge on at least one (in fact most). *)
let harsh seed =
  Fault.make
    ~profile:{ Fault.drop = 0.25; duplicate = 0.05; jitter_ms = 2.0 }
    ~quiet_after_ms:400.0 ~seed ()

let ablation_seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_raw_ablation () =
  let name, plan = List.nth (Lazy.force plans) 1 (* two-site-join *) in
  let reference = List.assoc name (Lazy.force reference) in
  let raw_divergences =
    List.filter
      (fun seed ->
        (* Reliable survives this exact plan… *)
        let out, fp = run_reliable ~fault:(harsh seed) plan in
        Alcotest.(check bool)
          (Printf.sprintf "reliable converges (seed %d)" seed)
          true
          (agrees ~reference out fp);
        (* …Raw gets the same faults without the protocol. *)
        let sys, _ = Test_rules_exec.build_system ~transport:System.Raw () in
        System.inject_faults sys (harsh seed);
        let out = Exec.run_to_quiescence sys ~ctx:p1 plan in
        not (agrees ~reference out (System.fingerprint sys)))
      ablation_seeds
  in
  Alcotest.(check bool) "raw transport loses data under drops" true
    (raw_divergences <> [])

(* --- determinism --------------------------------------------------- *)

(* Trace span ids and correlation ids come from global counters that
   [Trace.clear] deliberately does not reset, so two identical runs
   differ in raw ids.  Project ids out and renumber correlations by
   first occurrence; everything else must match bit-for-bit. *)
let normalized_trace () =
  let tbl = Hashtbl.create 32 in
  let norm_corr c =
    if c = 0 then 0
    else
      match Hashtbl.find_opt tbl c with
      | Some v -> v
      | None ->
          let v = Hashtbl.length tbl + 1 in
          Hashtbl.add tbl c v;
          v
  in
  List.map
    (fun (e : Obs.Trace.event) ->
      ( norm_corr e.corr, e.name, e.cat, e.peer, e.ts_ms, e.dur_ms,
        (match e.kind with Obs.Trace.Span -> "span" | Obs.Trace.Instant -> "instant"),
        e.args ))
    (Obs.Trace.events ())

let observed_chaos_run seed =
  Obs.Trace.set_enabled true;
  Obs.Trace.clear ();
  Obs.Metrics.set_enabled Obs.Metrics.default true;
  Obs.Metrics.reset Obs.Metrics.default;
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_enabled false;
      Obs.Trace.clear ();
      Obs.Metrics.set_enabled Obs.Metrics.default false;
      Obs.Metrics.reset Obs.Metrics.default)
    (fun () ->
      let _, plan = List.nth (Lazy.force plans) 1 in
      let sys, _ =
        Test_rules_exec.build_system ~transport:System.Reliable ()
      in
      System.inject_faults sys (Fault.random ~seed all_peers);
      let out = Exec.run_to_quiescence sys ~ctx:p1 plan in
      (out.stats, Obs.Metrics.snapshot Obs.Metrics.default, normalized_trace ()))

let test_same_seed_same_run () =
  let stats_a, metrics_a, trace_a = observed_chaos_run 42 in
  let stats_b, metrics_b, trace_b = observed_chaos_run 42 in
  Alcotest.(check bool) "identical stats" true (stats_a = stats_b);
  Alcotest.(check bool) "identical metrics snapshots" true
    (metrics_a = metrics_b);
  Alcotest.(check bool) "identical trace event sequences" true
    (trace_a = trace_b)

let test_different_seeds_differ () =
  Alcotest.(check bool) "seeds 1 and 2 give different plans" true
    (Fault.random ~seed:1 all_peers <> Fault.random ~seed:2 all_peers);
  Alcotest.(check bool) "seeds 3 and 4 give different plans" true
    (Fault.random ~seed:3 all_peers <> Fault.random ~seed:4 all_peers)

(* --- crash and recovery ------------------------------------------- *)

(* A continuous extern service streaming [k] numbered siblings, spaced
   out by [response_delay_ms] so batches straddle the crash window. *)
let streamer k =
  Doc.Service.extern ~name:"streamer"
    ~signature:(Schema.Signature.untyped ~arity:0)
    (fun _ ->
      let g = Xml.Node_id.Gen.create ~namespace:"stream" in
      List.init k (fun i ->
          Xml.Tree.element_of_string ~gen:g "s" [ Xml.Tree.text (string_of_int i) ]))

let batches = 6

let crash_system () =
  let sys =
    System.create ~transport:System.Reliable ~response_delay_ms:30.0
      (mesh ~latency:10.0 ~bandwidth:100.0 [ "p1"; "p2"; "p3" ])
  in
  let fo = Runtime.Failover.enable sys in
  System.add_service sys p2 (streamer batches);
  let inbox_gen = Xml.Node_id.Gen.create ~namespace:"chaos-inbox" in
  let inbox = Xml.Tree.element_of_string ~gen:inbox_gen "inbox" [] in
  let inbox_id = Option.get (Xml.Tree.id inbox) in
  System.add_document sys p3 ~name:"collector" inbox;
  (sys, fo, inbox_id)

let child_texts tree =
  Xml.Tree.children tree
  |> List.map (fun c -> String.trim (Xml.Tree.text_content c))
  |> List.sort String.compare

let distinct l = List.length (List.sort_uniq String.compare l) = List.length l

let crash_plan ~at_ms ~restart_ms =
  Fault.make
    ~events:[ Fault.Crash { peer = p3; at_ms; restart_ms = Some restart_ms } ]
    ~seed:0 ()

(* Stream into a [Node] reply destination; crash the collector's host
   mid-stream.  Recovery must resume accumulation without duplicating
   or losing siblings — the restored inbox keeps its node identity, so
   pre-crash reply destinations stay routable. *)
let test_crash_recovery_node_dest () =
  let plan inbox_id =
    Expr.sc
      (Doc.Sc.make
         ~forward:[ Names.Node_ref.make ~node:inbox_id ~peer:p3 ]
         ~provider:(Names.At p2) ~service:"streamer" [])
      ~at:p1
  in
  let run fault =
    let sys, fo, inbox_id = crash_system () in
    Option.iter (System.inject_faults sys) fault;
    let out = Exec.run_to_quiescence sys ~ctx:p1 (plan inbox_id) in
    Alcotest.(check bool) "quiescent" true (out.termination = `Quiescent);
    let doc = Option.get (System.find_document sys p3 "collector") in
    (child_texts (Doc.Document.root doc), System.fingerprint sys, sys, fo)
  in
  let ref_texts, ref_fp, _, _ = run None in
  Alcotest.(check int) "fault-free run collects every batch" batches
    (List.length ref_texts);
  let texts, fp, sys, fo =
    run (Some (crash_plan ~at_ms:60.0 ~restart_ms:140.0))
  in
  Alcotest.(check bool) "a checkpoint was taken" true
    (Runtime.Failover.snapshot fo p3 <> None);
  let rc = System.reliability_counters sys in
  Alcotest.(check bool) "batches were retransmitted across the outage" true
    (rc.System.retransmits > 0);
  Alcotest.(check bool) "no duplicated or lost siblings" true (distinct texts);
  Alcotest.(check (list string)) "same siblings as the fault-free run"
    ref_texts texts;
  Alcotest.(check string) "same Σ fingerprint" ref_fp fp

(* Same crash, but the stream materializes as an installed document
   ([Install] destination): the first batch creates the document, the
   crash lands mid-accumulation, recovery restores the partial copy
   and the retransmitted batches finish it. *)
let test_crash_recovery_install_dest () =
  let plan =
    Expr.send_as_doc ~name:"copy" ~at:p3
      (Expr.sc (Doc.Sc.make ~provider:(Names.At p2) ~service:"streamer" []) ~at:p1)
  in
  let run fault =
    let sys, _, _ = crash_system () in
    Option.iter (System.inject_faults sys) fault;
    let out = Exec.run_to_quiescence sys ~ctx:p1 plan in
    Alcotest.(check bool) "quiescent" true (out.termination = `Quiescent);
    let doc = Option.get (System.find_document sys p3 "copy") in
    (child_texts (Doc.Document.root doc), System.fingerprint sys)
  in
  let ref_texts, ref_fp = run None in
  (* The first batch's element becomes the root (its text is the
     root's first child), the later batches accumulate after it. *)
  Alcotest.(check int) "fault-free copy holds every batch" batches
    (List.length ref_texts);
  let texts, fp = run (Some (crash_plan ~at_ms:70.0 ~restart_ms:160.0)) in
  Alcotest.(check bool) "no duplicated or lost batches" true (distinct texts);
  Alcotest.(check (list string)) "same batches as the fault-free run"
    ref_texts texts;
  Alcotest.(check string) "same Σ fingerprint" ref_fp fp

(* --- runtime-level fault accounting -------------------------------- *)

(* A message to a crashed peer is a routable fault, not a programming
   error: it must count in Stats, against the crashed destination,
   instead of raising (regression for the old [No_handler] escape
   hatch). *)
let test_crashed_peer_drop_counted () =
  let sys, _ = Test_rules_exec.build_system () in
  System.crash sys p3;
  let out = Exec.run_to_quiescence sys ~ctx:p1 (Expr.doc "orders" ~at:"p3") in
  Alcotest.(check bool) "quiescent, not an exception" true
    (out.termination = `Quiescent);
  Alcotest.(check bool) "stream never closed" true (not out.finished);
  Alcotest.(check bool) "drop counted in Stats" true
    (out.stats.Net.Stats.drops >= 1);
  Alcotest.(check (list (pair string int)))
    "every drop counted against p3" [ ("p3", out.stats.Net.Stats.drops) ]
    (List.map
       (fun (p, n) -> (Net.Peer_id.to_string p, n))
       (Net.Stats.drops_by_peer (Net.Sim.stats (System.sim sys))))

(* With [Reliable] and no restart, the sender retries with backoff and
   eventually abandons — bounded effort, still quiescent. *)
let test_reliable_abandons_dead_peer () =
  let sys, _ = Test_rules_exec.build_system ~transport:System.Reliable () in
  System.crash sys p3;
  let out = Exec.run_to_quiescence sys ~ctx:p1 (Expr.doc "orders" ~at:"p3") in
  Alcotest.(check bool) "quiescent" true (out.termination = `Quiescent);
  let rc = System.reliability_counters sys in
  Alcotest.(check bool) "retried before giving up" true
    (rc.System.retransmits > 0);
  Alcotest.(check bool) "abandoned after max retries" true
    (rc.System.abandoned >= 1)

(* --- failover via generic resources -------------------------------- *)

let mirror_system () =
  let sys =
    System.create ~transport:System.Reliable
      (mesh ~latency:10.0 ~bandwidth:100.0 [ "p1"; "p2"; "p3" ])
  in
  System.load_document sys p2 ~name:"cat" ~xml:Test_rules_exec.catalog_xml;
  System.load_document sys p3 ~name:"cat" ~xml:Test_rules_exec.catalog_xml;
  System.register_doc_class sys ~class_name:"mirror"
    (Names.Doc_ref.at_peer "cat" ~peer:"p2");
  System.register_doc_class sys ~class_name:"mirror"
    (Names.Doc_ref.at_peer "cat" ~peer:"p3");
  sys

let test_generic_skips_crashed_members () =
  (* Whichever replica the policy prefers, losing either peer must
     leave the class resolvable through the survivor. *)
  List.iter
    (fun crashed ->
      let sys = mirror_system () in
      System.crash sys crashed;
      let out = Exec.run_to_quiescence sys ~ctx:p1 (Expr.doc_any "mirror") in
      Alcotest.(check bool)
        (Printf.sprintf "served despite losing %s" (Net.Peer_id.to_string crashed))
        true
        (out.finished && out.results <> []))
    [ p2; p3 ];
  (* Every member down: resolves to nothing, terminates cleanly. *)
  let sys = mirror_system () in
  System.crash sys p2;
  System.crash sys p3;
  let out = Exec.run_to_quiescence sys ~ctx:p1 (Expr.doc_any "mirror") in
  Alcotest.(check bool) "no member left: empty but finished" true
    (out.finished && out.results = [])

let suite =
  [
    QCheck_alcotest.to_alcotest chaos_property;
    QCheck_alcotest.to_alcotest batched_chaos_property;
    QCheck_alcotest.to_alcotest placement_chaos_property;
    ( "placement chaos actually migrated",
      `Quick,
      fun () ->
        Alcotest.(check bool) "at least one migration across the 200 cases"
          true
          (!placement_migrations_seen > 0) );
    ("raw transport loses data (ablation)", `Quick, test_raw_ablation);
    ("same seed, same run", `Quick, test_same_seed_same_run);
    ("different seeds, different plans", `Quick, test_different_seeds_differ);
    ("crash recovery: node destination", `Quick, test_crash_recovery_node_dest);
    ("crash recovery: install destination", `Quick, test_crash_recovery_install_dest);
    ("message to crashed peer is a counted drop", `Quick, test_crashed_peer_drop_counted);
    ("reliable sender abandons a dead peer", `Quick, test_reliable_abandons_dead_peer);
    ("generic resolution skips crashed members", `Quick, test_generic_skips_crashed_members);
  ]
