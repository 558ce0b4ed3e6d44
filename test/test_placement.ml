(* Adaptive placement suite (DESIGN.md §17).

   Three layers of assurance for the migration control loop:

   - pure planning: [Placement.plan_tick] over synthetic signal
     snapshots, and the [Load_steered] pick policy over synthetic
     gauges — hot ranking, budget/busy guards, crash skipping, and
     the no-signal fallbacks (a cold or disabled Timeseries must not
     NaN a score or starve a pick);
   - the live handoff protocol: appends streamed into a document
     mid-migration are neither lost nor duplicated (the Σ content
     fingerprint equals the migration-free twin run), and a source
     crash mid-handoff aborts cleanly — the restored source still
     serves, the target keeps no orphan;
   - determinism: same seed, same wire → byte-identical migration
     schedule, Timeseries fingerprint and stats on every wire;
     wires agree on Σ content; different seeds diverge. *)

open Axml
open Helpers
module System = Runtime.System
module Placement = Runtime.Placement
module Message = Runtime.Message
module Failover = Runtime.Failover
module Names = Doc.Names
module Generic = Doc.Generic
module Fault = Net.Fault
module Sim = Net.Sim
module Rng = Net.Rng
module Peer_id = Net.Peer_id
module Ts = Obs.Timeseries
module Scenarios = Workload.Scenarios

let p1 = peer "p1"
let p2 = peer "p2"
let p3 = peer "p3"

(* The default registry is global and per-run: size the window, run
   inside, then disable and restore the default width (which also
   clears the data) so no state leaks across tests. *)
let with_telemetry ?(window_ms = 20.0) f =
  let reg = Ts.default in
  Ts.set_window reg window_ms;
  Ts.set_enabled reg true;
  Fun.protect
    ~finally:(fun () ->
      Ts.set_enabled reg false;
      Ts.set_window reg 100.0)
    f

(* --- Load_steered pick policy -------------------------------------- *)

let mirror_catalog () =
  let cat = Generic.create () in
  List.iter
    (fun p ->
      Generic.register_doc cat ~class_name:"m"
        (Names.Doc_ref.at_peer "d" ~peer:p))
    [ "p1"; "p2"; "p3" ];
  cat

let picked_peer = function
  | Some { Names.Doc_ref.at = Names.At p; _ } -> Peer_id.to_string p
  | Some { Names.Doc_ref.at = Names.Any; _ } -> Alcotest.fail "picked @any"
  | None -> Alcotest.fail "no member picked"

let gauge_of alist p = List.assoc_opt (Peer_id.to_string p) alist

let test_steered_picks_least_loaded () =
  let cat = mirror_catalog () in
  let gauge = gauge_of [ ("p1", Some 5.0); ("p2", Some 1.0); ("p3", Some 9.0) ] in
  let pick =
    Generic.pick_doc cat
      ~policy:(Generic.Load_steered { seed = 1; gauge = fun p -> Option.join (gauge p) })
      ~class_name:"m"
  in
  Alcotest.(check string) "least-loaded member wins" "p2" (picked_peer pick)

let test_steered_ignores_non_finite_scores () =
  let cat = mirror_catalog () in
  (* A NaN or infinite reading is "no signal", never a poisoned
     ranking: the finite member must win. *)
  let gauge =
    gauge_of [ ("p1", Some nan); ("p2", Some 3.0); ("p3", Some infinity) ]
  in
  let pick =
    Generic.pick_doc cat
      ~policy:(Generic.Load_steered { seed = 1; gauge = fun p -> Option.join (gauge p) })
      ~class_name:"m"
  in
  Alcotest.(check string) "finite signal wins over NaN/inf" "p2"
    (picked_peer pick)

let test_steered_skips_unavailable_members () =
  let cat = mirror_catalog () in
  let gauge = gauge_of [ ("p1", Some 5.0); ("p2", Some 1.0); ("p3", Some 9.0) ] in
  let available p = Peer_id.to_string p <> "p2" in
  let pick =
    Generic.pick_doc cat ~available
      ~policy:(Generic.Load_steered { seed = 1; gauge = fun p -> Option.join (gauge p) })
      ~class_name:"m"
  in
  Alcotest.(check string) "crashed least-loaded member is skipped" "p1"
    (picked_peer pick)

let test_steered_all_none_falls_back () =
  let cat = mirror_catalog () in
  let policy seed = Generic.Load_steered { seed; gauge = (fun _ -> None) } in
  (* No signal anywhere (telemetry off / cold windows): the pick must
     still resolve, deterministically per seed — the seeded-random
     fallback, not an exception and not None. *)
  let a = picked_peer (Generic.pick_doc cat ~policy:(policy 3) ~class_name:"m") in
  let b = picked_peer (Generic.pick_doc cat ~policy:(policy 3) ~class_name:"m") in
  Alcotest.(check string) "fallback is deterministic per seed" a b;
  let random =
    picked_peer (Generic.pick_doc cat ~policy:(Generic.Random 3) ~class_name:"m")
  in
  Alcotest.(check string) "fallback is the seeded Random rule" random a

let test_steered_unregister_retires_member () =
  let cat = mirror_catalog () in
  Generic.unregister_doc cat ~class_name:"m"
    (Names.Doc_ref.at_peer "d" ~peer:"p2");
  Alcotest.(check int) "two members left" 2
    (List.length (Generic.doc_members cat ~class_name:"m"));
  let gauge = gauge_of [ ("p1", Some 5.0); ("p2", Some 0.0); ("p3", Some 9.0) ] in
  let pick =
    Generic.pick_doc cat
      ~policy:(Generic.Load_steered { seed = 1; gauge = fun p -> Option.join (gauge p) })
      ~class_name:"m"
  in
  Alcotest.(check string) "retired member is never picked" "p1"
    (picked_peer pick)

(* --- load_gauge: the windowed signal's edge cases ------------------ *)

let test_load_gauge_disabled_and_cold () =
  (* Telemetry off: no signal. *)
  let sys = System.create ~transport:System.Reliable (mesh [ "p1"; "p2" ]) in
  Alcotest.(check bool) "disabled telemetry reads None" true
    (Placement.load_gauge sys p1 = None);
  with_telemetry (fun () ->
      let sys = System.create ~transport:System.Reliable (mesh [ "p1"; "p2" ]) in
      (* Enabled but inside the first window: no complete window to
         rate over — None, not 0 and not NaN. *)
      Alcotest.(check bool) "cold start reads None" true
        (Placement.load_gauge sys p1 = None);
      (* Advance past the window with zero traffic: rate over empty
         complete windows is a finite 0.0 (the div-zero guard). *)
      Sim.after (System.sim sys) ~peer:p1 ~delay_ms:50.0 (fun () -> ());
      ignore (System.run sys);
      Alcotest.(check bool) "empty complete windows read Some 0." true
        (Placement.load_gauge sys p1 = Some 0.0))

(* --- plan_tick: pure planning over synthetic snapshots ------------- *)

let at_p name p = Names.Doc_ref.at_peer name ~peer:p

let base_signals ?(classes = [ ("doc1", [ at_p "doc1" "p1" ]) ])
    ?(rates = [ ("doc1", 100.0) ]) ?(loads = [])
    ?(live = fun _ -> true) ?(busy = fun _ -> false) () =
  {
    Placement.sig_classes = classes;
    sig_doc_rate =
      (fun n -> Option.value ~default:0.0 (List.assoc_opt n rates));
    sig_peer_load =
      (fun p ->
        Option.value ~default:infinity
          (List.assoc_opt (Peer_id.to_string p) loads));
    sig_live = live;
    (* Exactly the class members hold their documents. *)
    sig_holds =
      (fun p n ->
        List.exists
          (fun (_, ms) ->
            List.exists
              (fun (r : Names.Doc_ref.t) ->
                Names.Doc_name.to_string r.Names.Doc_ref.name = n
                && r.Names.Doc_ref.at = Names.At p)
              ms)
          classes);
    sig_peers = [ p1; p2; p3 ];
    sig_busy = busy;
  }

let cfg = { Placement.default_config with hot_rate = 50.0 }

let test_plan_picks_least_loaded_target () =
  let s = base_signals ~loads:[ ("p2", 7.0); ("p3", 2.0) ] () in
  match Placement.plan_tick cfg (Rng.create ~seed:1) s with
  | [ d ] ->
      Alcotest.(check string) "hot class" "doc1" d.Placement.d_class;
      Alcotest.(check string) "source is the holder" "p1"
        (Peer_id.to_string d.Placement.d_src);
      Alcotest.(check string) "target is the least-loaded non-member" "p3"
        (Peer_id.to_string d.Placement.d_dst)
  | ds -> Alcotest.failf "expected 1 decision, got %d" (List.length ds)

let test_plan_respects_guards () =
  let none reason s =
    Alcotest.(check int) reason 0
      (List.length (Placement.plan_tick cfg (Rng.create ~seed:1) s))
  in
  none "cold class is not migrated" (base_signals ~rates:[ ("doc1", 10.0) ] ());
  none "busy class is skipped" (base_signals ~busy:(fun _ -> true) ());
  none "dead source cannot ship"
    (base_signals ~live:(fun p -> Peer_id.to_string p <> "p1") ());
  none "replica budget caps the class"
    (base_signals
       ~classes:[ ("doc1", [ at_p "doc1" "p1"; at_p "doc1" "p2"; at_p "doc1" "p3" ]) ]
       ());
  (* Dead candidates: p1 holds, p2/p3 both crashed — nowhere to go. *)
  none "no live target, no decision"
    (base_signals ~live:(fun p -> Peer_id.to_string p = "p1") ())

let test_plan_concurrency_and_ranking () =
  let classes =
    [ ("a", [ at_p "a" "p1" ]); ("b", [ at_p "b" "p1" ]) ]
  in
  let rates = [ ("a", 60.0); ("b", 90.0) ] in
  let s = base_signals ~classes ~rates ~loads:[ ("p2", 1.0); ("p3", 2.0) ] () in
  (match Placement.plan_tick cfg (Rng.create ~seed:1) s with
  | [ d ] ->
      Alcotest.(check string) "one slot goes to the hotter class" "b"
        d.Placement.d_class
  | ds -> Alcotest.failf "expected 1 decision, got %d" (List.length ds));
  let cfg2 = { cfg with migrations_per_tick = 2 } in
  match Placement.plan_tick cfg2 (Rng.create ~seed:1) s with
  | [ da; db ] ->
      Alcotest.(check string) "hotter first" "b" da.Placement.d_class;
      Alcotest.(check string) "then the next" "a" db.Placement.d_class;
      Alcotest.(check bool) "targets are distinct within a tick" false
        (Peer_id.equal da.Placement.d_dst db.Placement.d_dst)
  | ds -> Alcotest.failf "expected 2 decisions, got %d" (List.length ds)

let test_plan_tie_break_is_seeded () =
  (* All candidates unreadable (infinity = no signal): the decision is
     the RNG's, so it replays per seed. *)
  let s = base_signals () in
  let dst seed =
    match Placement.plan_tick cfg (Rng.create ~seed) s with
    | [ d ] -> Peer_id.to_string d.Placement.d_dst
    | _ -> Alcotest.fail "expected 1 decision"
  in
  Alcotest.(check string) "same seed, same tie-break" (dst 1) (dst 1);
  let all = List.sort_uniq String.compare [ dst 1; dst 2; dst 3; dst 4; dst 5 ] in
  Alcotest.(check bool) "several seeds explore both candidates" true
    (List.length all > 1)

(* --- signals: the controller's class view --------------------------- *)

(* The union the view must equal, folded the slow way from the peers'
   catalogs: classes in order of first appearance over (peer, class
   name), members in (peer, registration) order without duplicates. *)
let reference_classes sys =
  List.fold_left
    (fun acc (p : Runtime.Peer.t) ->
      List.fold_left
        (fun acc cls ->
          let members =
            Generic.doc_members p.Runtime.Peer.catalog ~class_name:cls
          in
          match (members, List.assoc_opt cls acc) with
          | [], _ -> acc
          | _, None -> acc @ [ (cls, members) ]
          | _, Some known ->
              let extra =
                List.filter
                  (fun m -> not (List.exists (Names.Doc_ref.equal m) known))
                  members
              in
              List.map
                (fun (c, ms) -> if c = cls then (c, ms @ extra) else (c, ms))
                acc)
        acc
        (Generic.classes p.Runtime.Peer.catalog))
    [] (System.peers sys)

let show_classes =
  List.map (fun (cls, ms) ->
      cls ^ ": " ^ String.concat " " (List.map Names.Doc_ref.to_string ms))

(* The view is kept while no catalog changes, and follows every way one
   can change: the system-wide register and unregister, a register into
   one peer's catalog alone (as [Persist] restores do), and a crash,
   which replaces the peer's catalog with a fresh one. *)
let test_class_view_follows_catalogs () =
  with_telemetry (fun () ->
      let sys =
        System.create ~transport:System.Reliable (mesh [ "p1"; "p2"; "p3" ])
      in
      List.iter
        (fun (name, p) ->
          System.add_document sys (peer p) ~name
            (elt (System.gen_of sys (peer p)) "doc" []);
          System.register_doc_class sys ~class_name:name (at_p name p))
        [ ("d", "p1"); ("e", "p2") ];
      let ctl = Placement.enable sys in
      let view () = (Placement.signals ctl).Placement.sig_classes in
      let first = view () in
      Alcotest.(check bool) "nothing changed: the same view" true
        (first == view ());
      let check what =
        Alcotest.(check (list string))
          what
          (show_classes (reference_classes sys))
          (show_classes (view ()))
      in
      check "the initial view";
      System.register_doc_class sys ~class_name:"d" (at_p "d" "p2");
      check "after System.register_doc_class";
      Generic.register_doc (System.peer sys p3).Runtime.Peer.catalog
        ~class_name:"d" (at_p "d" "p3");
      check "after a register into p3's catalog alone";
      System.unregister_doc_class sys ~class_name:"e" (at_p "e" "p2");
      check "after System.unregister_doc_class";
      System.crash sys p3;
      System.restart sys p3;
      check "after p3's crash and restart";
      (* A fresh catalog that reaches its predecessor's version holds
         other members: only comparing catalogs physically tells them
         apart. *)
      let register_at_p3 name =
        Generic.register_doc (System.peer sys p3).Runtime.Peer.catalog
          ~class_name:name (at_p name "p3")
      in
      register_at_p3 "f";
      check "after a register into the restarted p3's catalog";
      System.crash sys p3;
      System.restart sys p3;
      register_at_p3 "g";
      check "after a second crash, at the old catalog's version")

(* --- live handoff: mid-migration appends --------------------------- *)

(* A 3-peer system on a thin link, so a ship stays in flight long
   enough for appends to overlap it.  [migrate]=false is the twin run
   the Σ content fingerprint is compared against. *)
let appends_total = 12

let run_handoff ~migrate =
  let sys =
    System.create ~transport:System.Reliable
      (mesh ~latency:10.0 ~bandwidth:5.0 [ "p1"; "p2"; "p3" ])
  in
  let sim = System.sim sys in
  let g1 = System.gen_of sys p1 in
  let root =
    elt g1 "doc"
      (List.init 4 (fun _ -> elt g1 "item" [ txt (String.make 256 'x') ]))
  in
  let node = Option.get (Xml.Tree.id root) in
  System.add_document sys p1 ~name:"d" root;
  System.register_doc_class sys ~class_name:"d" (at_p "d" "p1");
  (* Writer p3 streams appends before, during and after the ship. *)
  let g3 = System.gen_of sys p3 in
  for j = 0 to appends_total - 1 do
    let forest =
      [
        elt ~attrs:[ ("seq", string_of_int j) ] g3 "append"
          [ txt (Printf.sprintf "a-%d" j) ];
      ]
    in
    Sim.after sim ~peer:p3
      ~delay_ms:(5.0 +. (30.0 *. float_of_int j))
      (fun () ->
        System.send sys ~src:p3 ~dst:p1
          (Message.Insert { node; forest; notify = None }))
  done;
  let committed = ref false in
  if migrate then
    (* The protocol by hand — link first, ship second, in one Control
       event, exactly as [Placement.start_migration] does. *)
    Sim.at sim ~time:100.0 (fun () ->
        match System.find_document sys p1 "d" with
        | None -> Alcotest.fail "source lost the document"
        | Some doc ->
            Runtime.Peer.add_replica (System.peer sys p1)
              (Doc.Document.name doc) p2;
            let key = System.fresh_key sys in
            System.set_cont sys key (fun _ ~final ->
                if final then committed := true);
            System.send sys ~src:p1 ~dst:p2
              (Message.Migrate_doc
                 {
                   name = "d";
                   forest = [ Doc.Document.root doc ];
                   notify = Some (p1, key);
                 }));
  let outcome, _ = System.run sys in
  Alcotest.(check bool) "quiescent" true (outcome = `Quiescent);
  (sys, !committed)

let test_handoff_preserves_streamed_appends () =
  let twin, _ = run_handoff ~migrate:false in
  let reference = System.content_fingerprint twin in
  let sys, committed = run_handoff ~migrate:true in
  Alcotest.(check bool) "target acknowledged the ship" true committed;
  let root_at p =
    match System.find_document sys p "d" with
    | Some doc -> Doc.Document.root doc
    | None -> Alcotest.failf "no document at %s" (Peer_id.to_string p)
  in
  Alcotest.(check int) "every append landed at the source exactly once"
    (4 + appends_total)
    (List.length (Xml.Tree.children (root_at p1)));
  (* The replica converged to the source copy — ids included. *)
  Alcotest.(check string) "replica equals source"
    (Doc.Equivalence.fingerprint (root_at p1))
    (Doc.Equivalence.fingerprint (root_at p2));
  (* And the Σ content set is exactly the migration-free run's:
     identical replicas collapse, nothing was lost or duplicated. *)
  Alcotest.(check string) "Σ content equals the migration-free twin"
    reference
    (System.content_fingerprint sys)

(* --- live handoff: source crash mid-ship --------------------------- *)

(* Controller-driven: heat the document, let the controller start a
   ship fat enough to still be in flight at the crash, crash the
   source, restart it under Failover.  The migration must abort (not
   commit), the restored source must still serve, and the target must
   end clean — the late-arriving ship is retracted behind it in FIFO
   order. *)
let crash_system ~chaos =
  let sys =
    System.create ~transport:System.Reliable
      (mesh ~latency:10.0 ~bandwidth:10.0 [ "p1"; "p2"; "p3" ])
  in
  let _fo = Failover.enable sys in
  let g1 = System.gen_of sys p1 in
  let root =
    elt g1 "doc"
      (List.init 4 (fun _ -> elt g1 "item" [ txt (String.make 2000 'y') ]))
  in
  System.add_document sys p1 ~name:"d" root;
  System.register_doc_class sys ~class_name:"d" (at_p "d" "p1");
  if chaos then
    System.inject_faults sys
      (Fault.make
         ~events:
           [ Fault.Crash { peer = p1; at_ms = 150.0; restart_ms = Some 600.0 } ]
         ~seed:0 ());
  sys

let test_source_crash_aborts_cleanly () =
  with_telemetry (fun () ->
      let reference =
        let sys = crash_system ~chaos:false in
        ignore (System.run sys);
        System.content_fingerprint sys
      in
      let sys = crash_system ~chaos:true in
      let sim = System.sim sys in
      (* Heat doc/d/reads inside the first 20 ms window, so the first
         tick after it sees a hot class. *)
      for j = 1 to 19 do
        Sim.after sim ~peer:p2 ~delay_ms:(float_of_int j) (fun () ->
            ignore (System.find_document sys p1 "d"))
      done;
      let ctl =
        Placement.enable
          ~cfg:
            {
              Placement.default_config with
              tick_ms = 25.0;
              windows = 1;
              hot_rate = 10.0;
              handoff_timeout_ms = 10_000.0;
              seed = 5;
              eligible = Some (fun p -> Peer_id.equal p p2);
            }
          sys
      in
      let outcome, _ = System.run sys in
      Alcotest.(check bool) "quiescent" true (outcome = `Quiescent);
      let st = Placement.stats ctl in
      Alcotest.(check int) "one migration started" 1 st.Placement.s_started;
      Alcotest.(check int) "it aborted" 1 st.Placement.s_aborted;
      Alcotest.(check int) "nothing committed" 0 st.Placement.s_committed;
      (* The restored source still serves... *)
      Alcotest.(check bool) "source restarted" true
        (not (Sim.is_crashed sim p1));
      Alcotest.(check bool) "source still holds the document" true
        (System.find_document sys p1 "d" <> None);
      (* ...the class never gained the target... *)
      Alcotest.(check int) "class membership unchanged" 1
        (List.length
           (Generic.doc_members (System.peer sys p1).Runtime.Peer.catalog
              ~class_name:"d"));
      (* ...and the target holds no orphan: the late ship was chased
         down by the retraction on the same FIFO link. *)
      Alcotest.(check bool) "target ends clean" true
        (System.find_document sys p2 "d" = None);
      (* Nothing is sent to the source during its outage, and the ship
         outlives it in transfer: the retry timer waits for the frame's
         expected arrival, so the ship is not re-sent. *)
      let rc = System.reliability_counters sys in
      Alcotest.(check int) "the in-flight ship was not re-sent" 0
        rc.System.retransmits;
      Alcotest.(check string) "Σ content equals the crash-free run" reference
        (System.content_fingerprint sys))

(* --- determinism --------------------------------------------------- *)

(* A small hotspot run with the controller attached; everything the
   replay contract promises, in one tuple. *)
let observed_run ?(steered = true) ~wire ~seed () =
  with_telemetry ~window_ms:10.0 (fun () ->
      let hs =
        Scenarios.hotspot ~owners:4 ~spares:2 ~readers:8 ~docs:12
          ~hot_fraction:0.1 ~hot_share:0.9 ~reads_per_reader:10 ~appends:4
          ~append_every_ms:10.0 ~payload_bytes:512 ~think_ms:2.0
          ~arrival_window_ms:50.0 ~steered ~wire ~seed ()
      in
      let sys = hs.Scenarios.hs_system in
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
              seed = seed + 99;
              eligible =
                Some (fun p -> List.exists (Peer_id.equal p) storage);
            }
          sys
      in
      let outcome, _ = System.run sys in
      Alcotest.(check bool) "quiescent" true (outcome = `Quiescent);
      ( Placement.schedule_fingerprint ctl,
        Ts.fingerprint Ts.default,
        System.content_fingerprint sys,
        System.stats sys,
        (Placement.stats ctl).Placement.s_started ))

let test_same_seed_replays_per_wire () =
  List.iter
    (fun wire ->
      let sched_a, ts_a, content_a, stats_a, n_a = observed_run ~wire ~seed:11 () in
      let sched_b, ts_b, content_b, stats_b, n_b = observed_run ~wire ~seed:11 () in
      Alcotest.(check string) "same migration schedule" sched_a sched_b;
      Alcotest.(check string) "same Timeseries fingerprint" ts_a ts_b;
      Alcotest.(check string) "same Σ content" content_a content_b;
      Alcotest.(check bool) "same stats snapshot" true (stats_a = stats_b);
      Alcotest.(check int) "same migration count" n_a n_b)
    [ System.Xml; System.Binary; System.Binary_strict ]

let test_wires_agree_on_content () =
  let _, _, xml, _, n_xml = observed_run ~wire:System.Xml ~seed:11 () in
  let _, _, bin, _, _ = observed_run ~wire:System.Binary ~seed:11 () in
  let _, _, strict, _, _ = observed_run ~wire:System.Binary_strict ~seed:11 () in
  Alcotest.(check bool) "the run actually migrated" true (n_xml > 0);
  Alcotest.(check string) "binary wire reaches the xml Σ content" xml bin;
  Alcotest.(check string) "strict wire reaches the xml Σ content" xml strict

let test_cross_seed_runs_diverge () =
  let sched_a, ts_a, _, _, _ = observed_run ~wire:System.Xml ~seed:11 () in
  let sched_b, ts_b, _, _, _ = observed_run ~wire:System.Xml ~seed:12 () in
  Alcotest.(check bool) "different seeds, different schedules" true
    (sched_a <> sched_b || ts_a <> ts_b)

(* Two same-seed runs of the benchmark's hotspot shape in one process,
   with no [Timeseries.reset] between them: creating the second system
   installs a fresh clock, and that must drop the first run's windows,
   or their load and read rates steer the second run's migrations. *)
let test_rerun_needs_no_reset () =
  let run () =
    let hs =
      Scenarios.hotspot ~owners:6 ~spares:4 ~readers:32 ~docs:40
        ~hot_fraction:0.1 ~hot_share:0.9 ~reads_per_reader:50 ~appends:36
        ~append_every_ms:100.0 ~payload_bytes:2048 ~think_ms:2.0
        ~arrival_window_ms:100.0 ~steered:true ~wire:System.Binary
        ~cpu_ms_per_kb:3.0 ~seed:1 ()
    in
    let sys = hs.Scenarios.hs_system in
    let storage = hs.Scenarios.hs_owners @ hs.Scenarios.hs_spares in
    let ctl =
      Placement.enable
        ~cfg:
          {
            Placement.default_config with
            tick_ms = 20.0;
            windows = 3;
            hot_rate = 100.0;
            migrations_per_tick = 2;
            seed = 100;
            eligible = Some (fun p -> List.exists (Peer_id.equal p) storage);
          }
        sys
    in
    let outcome, _ = System.run ~max_events:2_000_000 sys in
    Alcotest.(check bool) "quiescent" true (outcome = `Quiescent);
    ( Placement.schedule_fingerprint ctl,
      (Placement.stats ctl).Placement.s_started )
  in
  with_telemetry ~window_ms:10.0 (fun () ->
      let sched_a, n_a = run () in
      let sched_b, n_b = run () in
      Alcotest.(check bool) "the run migrated" true (n_a > 0);
      Alcotest.(check int) "same migration count" n_a n_b;
      Alcotest.(check string) "same migration schedule" sched_a sched_b)

let suite =
  [
    ("steered pick: least-loaded member wins", `Quick, test_steered_picks_least_loaded);
    ("steered pick: NaN/inf never poisons", `Quick, test_steered_ignores_non_finite_scores);
    ("steered pick: skips unavailable members", `Quick, test_steered_skips_unavailable_members);
    ("steered pick: no signal falls back to seeded random", `Quick, test_steered_all_none_falls_back);
    ("steered pick: unregistered member retired", `Quick, test_steered_unregister_retires_member);
    ("load gauge: disabled and cold windows", `Quick, test_load_gauge_disabled_and_cold);
    ("plan: least-loaded target", `Quick, test_plan_picks_least_loaded_target);
    ("plan: guards (cold, busy, dead, budget)", `Quick, test_plan_respects_guards);
    ("plan: ranking and per-tick concurrency", `Quick, test_plan_concurrency_and_ranking);
    ("plan: tie-break is seeded", `Quick, test_plan_tie_break_is_seeded);
    ("signals: class view reused, follows every catalog change", `Quick, test_class_view_follows_catalogs);
    ("handoff: mid-migration appends survive", `Quick, test_handoff_preserves_streamed_appends);
    ("handoff: source crash aborts cleanly", `Quick, test_source_crash_aborts_cleanly);
    ("determinism: same seed replays on every wire", `Quick, test_same_seed_replays_per_wire);
    ("determinism: wires agree on Σ content", `Quick, test_wires_agree_on_content);
    ("determinism: seeds diverge", `Quick, test_cross_seed_runs_diverge);
    ("determinism: rerun in one process needs no reset", `Quick, test_rerun_needs_no_reset);
  ]
