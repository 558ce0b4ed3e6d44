(* Windowed telemetry engine, trace sampling and the query profiler:
   Timeseries ring semantics, the sampled-trace subset property,
   same-seed fingerprint determinism (including under faults and
   crash/restart), profiler sum-to-root, exporter escaping. *)

open Axml
open Helpers
module System = Runtime.System
module Trace = Obs.Trace
module Timeseries = Obs.Timeseries
module Metrics = Obs.Metrics

let p1 = peer "p1"
let p2 = peer "p2"
let p3 = peer "p3"

(* Every test owns the global observability state: start clean, leave
   clean (the runtime instruments the default registries). *)
let with_telemetry f =
  let reset () =
    Trace.set_enabled false;
    Trace.clear ();
    Trace.set_sampling ~seed:0 ~keep_one_in:1 ();
    Metrics.set_enabled Metrics.default false;
    Metrics.reset Metrics.default;
    Timeseries.set_enabled Timeseries.default false;
    Timeseries.reset Timeseries.default
  in
  reset ();
  Fun.protect ~finally:reset f

(* --- Timeseries ring semantics ----------------------------------- *)

let test_window_aggregates () =
  let t = Timeseries.create ~window_ms:10.0 ~ring:4 () in
  Timeseries.set_enabled t true;
  let h = Timeseries.handle t "k" in
  Timeseries.record_at h ~ts:12.0 3.0;
  Timeseries.record_at h ~ts:17.0 5.0;
  Timeseries.record_at h ~ts:25.0 7.0;
  (match Timeseries.read_window t "k" ~epoch:1 with
  | None -> Alcotest.fail "window 1 missing"
  | Some a ->
      Alcotest.(check int) "count" 2 a.Timeseries.w_count;
      Alcotest.(check (float 1e-9)) "sum" 8.0 a.Timeseries.w_sum;
      Alcotest.(check (float 1e-9)) "min" 3.0 a.Timeseries.w_min;
      Alcotest.(check (float 1e-9)) "max" 5.0 a.Timeseries.w_max;
      Alcotest.(check (float 1e-9)) "start" 10.0 a.Timeseries.w_start_ms);
  (match Timeseries.read_window t "k" ~epoch:2 with
  | None -> Alcotest.fail "window 2 missing"
  | Some a -> Alcotest.(check int) "count" 1 a.Timeseries.w_count);
  Alcotest.(check bool)
    "empty window absent" true
    (Timeseries.read_window t "k" ~epoch:0 = None)

let test_ring_eviction () =
  let t = Timeseries.create ~window_ms:10.0 ~ring:4 () in
  Timeseries.set_enabled t true;
  let h = Timeseries.handle t "k" in
  (* Epochs 0..5 through a 4-slot ring: 0 and 1 are overwritten by 4
     and 5 (same slot, newer epoch). *)
  for e = 0 to 5 do
    Timeseries.record_at h ~ts:(float_of_int e *. 10.0) 1.0
  done;
  Alcotest.(check bool)
    "epoch 0 evicted" true
    (Timeseries.read_window t "k" ~epoch:0 = None);
  Alcotest.(check bool)
    "epoch 1 evicted" true
    (Timeseries.read_window t "k" ~epoch:1 = None);
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Printf.sprintf "epoch %d live" e)
        true
        (Timeseries.read_window t "k" ~epoch:e <> None))
    [ 2; 3; 4; 5 ]

let test_rate_and_quantile () =
  let t = Timeseries.create ~window_ms:100.0 ~ring:8 () in
  Timeseries.set_enabled t true;
  let h = Timeseries.handle ~hist:true t "lat" in
  (* 10 observations in [0,100), 20 in [100,200); now = 250 so both are
     complete windows and the (empty) current one is excluded. *)
  for i = 0 to 9 do
    Timeseries.record_at h ~ts:(float_of_int i *. 10.0) 4.0
  done;
  for i = 0 to 19 do
    Timeseries.record_at h ~ts:(100.0 +. float_of_int i) 64.0
  done;
  Alcotest.(check (float 1e-9))
    "rate over 2 windows" 150.0
    (Timeseries.rate t "lat" ~now:250.0 ~windows:2);
  (* Merged histogram: 10 observations of 4.0, 20 of 64.0 — the median
     and above sit in the 64.0 bucket, low quantiles in the 4.0 one.
     Quantiles answer with the bucket's inclusive upper bound. *)
  let q q' = Timeseries.quantile t "lat" ~now:250.0 ~windows:8 ~q:q' in
  Alcotest.(check (float 1e-9)) "p25 bucket" 4.0 (q 0.25);
  Alcotest.(check (float 1e-9)) "p95 bucket" 64.0 (q 0.95);
  Alcotest.(check (float 1e-9)) "no data" 0.0
    (Timeseries.quantile t "none" ~now:250.0 ~windows:8 ~q:0.5);
  (* A series recorded without buckets has no distribution to read. *)
  Timeseries.record_at (Timeseries.handle t "plain") ~ts:10.0 4.0;
  Alcotest.(check bool) "quantile without buckets raises" true
    (match Timeseries.quantile t "plain" ~now:250.0 ~windows:8 ~q:0.5 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Recording allocates nothing on an enabled registry.  The arguments
   are boxed before the bracket (a list of floats), so the bracket
   counts only what the recording call itself allocates. *)
let rec record_all h = function
  | [] -> ()
  | ts :: rest ->
      Timeseries.record_at h ~ts 3.0;
      record_all h rest

let rec observe_all h = function
  | [] -> ()
  | v :: rest ->
      Metrics.observe_h h v;
      observe_all h rest

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_recording_allocates_nothing () =
  with_telemetry (fun () ->
      let t = Timeseries.create ~window_ms:10.0 ~ring:4 () in
      Timeseries.set_enabled t true;
      (* 1000 timestamps over 70 windows: every slot is reused. *)
      let tss = List.init 1000 (fun i -> float_of_int i *. 0.7) in
      (* What the bracket itself costs, if anything. *)
      let empty = minor_words ignore in
      List.iter
        (fun (label, h) ->
          Timeseries.record_at h ~ts:0.0 1.0;
          Alcotest.(check (float 0.0))
            (label ^ ": 1000 records allocate nothing")
            empty
            (minor_words (fun () -> record_all h tss)))
        [
          ("histogram series", Timeseries.handle ~hist:true t "hist");
          ("plain series", Timeseries.handle t "plain");
        ];
      Metrics.set_enabled Metrics.default true;
      let h = Metrics.hist_handle Metrics.default ~subsystem:"test" "obs" in
      (* Values spanning the bucket range, overflow and NaN included. *)
      let vs =
        Float.nan :: List.init 999 (fun i -> Float.pow 2.0 (float_of_int ((i mod 40) - 8)))
      in
      Metrics.observe_h h 1.0;
      Alcotest.(check (float 0.0))
        "1000 Metrics.observe_h allocate nothing" empty
        (minor_words (fun () -> observe_all h vs)))

let test_set_window_resets () =
  let t = Timeseries.create ~window_ms:10.0 ~ring:4 () in
  Timeseries.set_enabled t true;
  let h = Timeseries.handle t "k" in
  Timeseries.record_at h ~ts:5.0 1.0;
  Alcotest.(check bool) "live before" true (Timeseries.keys t <> []);
  Timeseries.set_window t 50.0;
  Alcotest.(check (float 1e-9)) "width changed" 50.0 (Timeseries.window_ms t);
  Alcotest.(check bool) "series dropped" true (Timeseries.keys t = []);
  (* Handles re-resolve against the new generation. *)
  Timeseries.record_at h ~ts:60.0 2.0;
  Alcotest.(check bool)
    "records in new grid" true
    (Timeseries.read_window t "k" ~epoch:1 <> None)

let test_disabled_records_nothing () =
  let t = Timeseries.create () in
  let h = Timeseries.handle t "k" in
  Timeseries.record_at h ~ts:1.0 1.0;
  Alcotest.(check bool) "no keys" true (Timeseries.keys t = []);
  Alcotest.(check string)
    "empty fingerprint is stable" (Timeseries.fingerprint t)
    (Timeseries.fingerprint (Timeseries.create ()))

(* --- flash-crowd runs under full telemetry ------------------------ *)

(* A small flash crowd (10 peers, 18 requests) driven to quiescence
   with everything enabled; returns (events, fingerprint). *)
let crowd_run ?fault ~scenario_seed ~keep () =
  Trace.set_enabled true;
  Trace.clear ();
  Trace.set_sampling ~seed:42 ~keep_one_in:keep ();
  Metrics.set_enabled Metrics.default true;
  Metrics.reset Metrics.default;
  Timeseries.set_enabled Timeseries.default true;
  Timeseries.reset Timeseries.default;
  let fc =
    Workload.Scenarios.flash_crowd ~mirrors:3 ~subscribers:6
      ~requests_per_subscriber:3 ~transport:System.Reliable
      ~seed:scenario_seed ()
  in
  let sys = fc.Workload.Scenarios.fc_system in
  Option.iter (fun f -> System.inject_faults sys f) fault;
  let outcome, _ = System.run ~max_events:50_000 sys in
  Alcotest.(check bool) "quiescent" true (outcome = `Quiescent);
  (Trace.events (), Timeseries.fingerprint Timeseries.default)

(* Projection for trace comparisons: everything except the span ids
   (unsampled spans still consume no ids — but open/close interleaving
   differs between a thinned and a full recording, so parent links are
   the one field not preserved verbatim by sampling). *)
let project (e : Trace.event) =
  ( e.Trace.corr, e.Trace.op, e.Trace.name, e.Trace.cat, e.Trace.peer,
    e.Trace.ts_ms, e.Trace.dur_ms, e.Trace.kind = Trace.Instant, e.Trace.args )

let test_sampled_subset () =
  with_telemetry (fun () ->
      let full, _ = crowd_run ~scenario_seed:5 ~keep:1 () in
      let sampled, _ = crowd_run ~scenario_seed:5 ~keep:8 () in
      Alcotest.(check bool)
        "sampling thinned the trace" true
        (List.length sampled < List.length full && sampled <> []);
      (* keep_corr must reflect the sampled run's configuration. *)
      let expected =
        List.filter (fun (e : Trace.event) -> Trace.keep_corr e.Trace.corr) full
      in
      Alcotest.(check int)
        "same cardinality" (List.length expected) (List.length sampled);
      List.iter2
        (fun a b ->
          Alcotest.(check bool) "event matches" true (project a = project b))
        expected sampled)

let qcheck_sampled_subset =
  QCheck.Test.make ~count:6 ~name:"sampled trace = keep_corr subset of full"
    QCheck.(pair (int_range 1 50) (int_range 2 16))
    (fun (scenario_seed, keep) ->
      with_telemetry (fun () ->
          let full, _ = crowd_run ~scenario_seed ~keep:1 () in
          let sampled, _ = crowd_run ~scenario_seed ~keep () in
          let expected =
            List.filter
              (fun (e : Trace.event) -> Trace.keep_corr e.Trace.corr)
              full
          in
          List.length expected = List.length sampled
          && List.for_all2
               (fun a b -> project a = project b)
               expected sampled))

let test_fingerprint_deterministic () =
  with_telemetry (fun () ->
      let _, fp1 = crowd_run ~scenario_seed:7 ~keep:4 () in
      let _, fp2 = crowd_run ~scenario_seed:7 ~keep:4 () in
      Alcotest.(check string) "same-seed fingerprints agree" fp1 fp2;
      (* Sampling only thins the trace; the windowed load series are
         recorded unconditionally, so the fingerprint is also
         independent of the sampling rate. *)
      let _, fp3 = crowd_run ~scenario_seed:7 ~keep:1 () in
      Alcotest.(check string) "sampling-independent" fp1 fp3)

let test_fingerprint_deterministic_under_faults () =
  with_telemetry (fun () ->
      (* Lossy links plus a crash/restart of a mirror mid-run: the
         reliable transport re-delivers, and two same-seed replays must
         agree on every windowed aggregate. *)
      let fault () =
        Net.Fault.make
          ~profile:
            { Net.Fault.drop = 0.15; duplicate = 0.05; jitter_ms = 2.0 }
          ~events:
            [
              Net.Fault.Crash
                {
                  peer = peer "mirror001";
                  at_ms = 40.0;
                  restart_ms = Some 90.0;
                };
            ]
          ~quiet_after_ms:400.0 ~seed:13 ()
      in
      let _, fp1 = crowd_run ~fault:(fault ()) ~scenario_seed:9 ~keep:4 () in
      let _, fp2 = crowd_run ~fault:(fault ()) ~scenario_seed:9 ~keep:4 () in
      Alcotest.(check string) "replay fingerprints agree" fp1 fp2;
      Alcotest.(check bool)
        "faulty run differs from clean run" true
        (fp1 <> snd (crowd_run ~scenario_seed:9 ~keep:4 ())))

let test_doc_and_peer_series_recorded () =
  with_telemetry (fun () ->
      let has prefix =
        List.exists
          (fun k -> String.starts_with ~prefix k)
          (Timeseries.keys Timeseries.default)
      in
      let _, _ = crowd_run ~scenario_seed:3 ~keep:1 () in
      Alcotest.(check bool) "per-peer tx" true (has "peer/");
      Alcotest.(check bool) "no per-link series" false (has "net/link/");
      (* The crowd's mirrors serve a service, not a stored document; a
         hotspot's readers read documents. *)
      let hs =
        Workload.Scenarios.hotspot ~owners:2 ~spares:1 ~readers:4 ~docs:4
          ~reads_per_reader:5 ~seed:3 ()
      in
      let outcome, _ =
        System.run ~max_events:50_000 hs.Workload.Scenarios.hs_system
      in
      Alcotest.(check bool) "hotspot quiescent" true (outcome = `Quiescent);
      Alcotest.(check bool) "per-doc load" true (has "doc/");
      Alcotest.(check bool) "still no per-link series" false (has "net/link/"))

(* A small crowd under [transport] with telemetry on: the peers that
   sent a sequenced (non-ack) message to another peer, read off the
   [xfer] spans, and the peers owning a [peer/<p>/inflight] series. *)
let inflight_run transport =
  with_telemetry (fun () ->
      Timeseries.set_enabled Timeseries.default true;
      Trace.set_enabled true;
      let fc =
        Workload.Scenarios.flash_crowd ~mirrors:3 ~subscribers:6
          ~requests_per_subscriber:3 ~transport ~seed:3 ()
      in
      let sys = fc.Workload.Scenarios.fc_system in
      let outcome, _ = System.run ~max_events:50_000 sys in
      Alcotest.(check bool) "quiescent" true (outcome = `Quiescent);
      let senders =
        List.filter_map
          (fun (x : Net.Sim.xfer) ->
            if String.starts_with ~prefix:"ack[" x.note || Net.Peer_id.equal x.src x.dst
            then None
            else Some (Net.Peer_id.to_string x.src))
          (xfers ())
        |> List.sort_uniq compare
      in
      let with_inflight =
        List.filter_map
          (fun k ->
            match String.split_on_char '/' k with
            | [ "peer"; p; "inflight" ] -> Some p
            | _ -> None)
          (Timeseries.keys Timeseries.default)
      in
      (senders, with_inflight))

let test_inflight_per_sending_peer () =
  let senders, with_inflight = inflight_run System.Reliable in
  Alcotest.(check bool) "some peer sent sequenced messages" true (senders <> []);
  Alcotest.(check (list string))
    "Reliable: every sender of a sequenced message has an in-flight series" []
    (List.filter (fun p -> not (List.mem p with_inflight)) senders);
  let _, with_inflight = inflight_run System.Raw in
  Alcotest.(check (list string)) "Raw: no in-flight series" [] with_inflight

(* Planning reads the stores for document sizes, but it is not demand:
   with telemetry on it must leave no doc/<n>/reads sample for the
   placement controller.  The sizes it reads are memoized per root, so
   after an append they must describe the new root. *)
let test_planning_is_not_demand () =
  with_telemetry (fun () ->
      Timeseries.set_enabled Timeseries.default true;
      let sys = System.create (mesh [ "p1"; "p2" ]) in
      let rng = Workload.Rng.create ~seed:5 in
      System.add_document sys p2 ~name:"cat"
        (Workload.Xml_gen.catalog ~gen:(System.gen_of sys p2) ~rng ~items:20
           ~selectivity:0.2 ());
      let plan =
        Algebra.Expr.query_at (Workload.Xml_gen.selection_query ()) ~at:p1
          ~args:[ Algebra.Expr.doc "cat" ~at:"p2" ]
      in
      let env = System.cost_env sys in
      ignore
        (Algebra.Planner.plan ~env ~ctx:p1
           (Algebra.Optimizer.Best_first { max_expansions = 32 })
           plan);
      Alcotest.(check (list string))
        "no doc/<n>/reads series" []
        (List.filter
           (fun k -> String.starts_with ~prefix:"doc/" k)
           (Timeseries.keys Timeseries.default));
      let cat = Doc.Names.Doc_ref.of_string "cat@p2" in
      ignore (env.Algebra.Cost.doc_bytes cat);
      let store = (System.peer sys p2).Runtime.Peer.store in
      let name = Doc.Names.Doc_name.of_string "cat" in
      let root = Doc.Document.root (Option.get (Doc.Store.peek store name)) in
      let appended =
        Doc.Store.insert_under store name ~node:(Option.get (Xml.Tree.id root))
          [ Xml.Tree.element_of_string ~gen:(System.gen_of sys p2) "item" [] ]
      in
      Alcotest.(check int)
        "doc_bytes after an append is the new root's size"
        (Xml.Tree.byte_size (Doc.Document.root (Option.get appended)))
        (env.Algebra.Cost.doc_bytes cat))

(* Listing a peer's documents is bookkeeping, not demand: routing an
   insert to the document that holds its node, a checkpoint and
   [activate_all] each walk every document on the peer, and none of
   them may leave a doc/<n>/reads sample for the placement controller.
   Nor may a stream's batch installed into an existing document: that
   is a write.  A service that reads a document still records its
   read. *)
let test_bookkeeping_is_not_demand () =
  with_telemetry (fun () ->
      Timeseries.set_enabled Timeseries.default true;
      let sys = System.create (mesh [ "p1"; "p2" ]) in
      let g = System.gen_of sys p2 in
      let roots =
        List.map
          (fun name ->
            let root = elt g "doc" [ elt g "item" [ txt name ] ] in
            System.add_document sys p2 ~name root;
            root)
          [ "a"; "b"; "c" ]
      in
      let doc_reads () =
        List.fold_left
          (fun acc (k, windows) ->
            if String.starts_with ~prefix:"doc/" k then
              List.fold_left
                (fun acc w -> acc + w.Timeseries.w_count)
                acc windows
            else acc)
          0
          (Timeseries.snapshot Timeseries.default)
      in
      let run () =
        let outcome, _ = System.run sys in
        Alcotest.(check bool) "quiescent" true (outcome = `Quiescent)
      in
      System.send sys ~src:p1 ~dst:p2
        (Runtime.Message.Insert
           {
             node = Option.get (Xml.Tree.id (List.nth roots 1));
             forest = [ elt (System.gen_of sys p1) "item" [ txt "new" ] ];
             notify = None;
           });
      run ();
      let b =
        Doc.Store.peek (System.peer sys p2).Runtime.Peer.store
          (Doc.Names.Doc_name.of_string "b")
      in
      Alcotest.(check int) "the insert landed" 2
        (List.length (Xml.Tree.children (Doc.Document.root (Option.get b))));
      Alcotest.(check int) "insert routing: no read" 0 (doc_reads ());
      ignore (Runtime.Persist.checkpoint_xml sys p2);
      Alcotest.(check int) "checkpoint: no read" 0 (doc_reads ());
      ignore (System.activate_all sys ());
      Alcotest.(check int) "activate_all: no read" 0 (doc_reads ());
      System.send sys ~src:p1 ~dst:p2
        (Runtime.Message.Install_doc
           {
             name = "a";
             forest = [ elt (System.gen_of sys p1) "item" [ txt "batch" ] ];
             notify = None;
           });
      run ();
      let a =
        Doc.Store.peek (System.peer sys p2).Runtime.Peer.store
          (Doc.Names.Doc_name.of_string "a")
      in
      Alcotest.(check int) "the batch landed in the existing document" 2
        (List.length (Xml.Tree.children (Doc.Document.root (Option.get a))));
      Alcotest.(check int) "stream install: no read" 0 (doc_reads ());
      System.add_service sys p2 (Doc.Service.doc_feed ~name:"feed" ~doc:"a");
      let key = System.fresh_key sys in
      System.set_cont sys key (fun _ ~final:_ -> ());
      System.send sys ~src:p1 ~dst:p2
        (Runtime.Message.Invoke
           {
             service = Doc.Names.Service_name.of_string "feed";
             params = [];
             replies = [ Runtime.Message.Cont { peer = p1; key } ];
           });
      run ();
      Alcotest.(check int) "a Doc_feed read records one" 1 (doc_reads ()))

(* --- profiler ------------------------------------------------------ *)

let join_system () =
  let sys = System.create (mesh [ "p1"; "p2"; "p3" ]) in
  let seed = ref 7 in
  List.iter
    (fun p ->
      let rng = Workload.Rng.create ~seed:!seed in
      incr seed;
      let g = System.gen_of sys p in
      System.add_document sys p ~name:"cat"
        (Workload.Xml_gen.catalog ~gen:g ~rng ~items:40 ~selectivity:0.2 ()))
    [ p2; p3 ];
  sys

let join_plan () =
  let join =
    query
      {|query(2) for $x in $0//item, $y in $1//item
        where attr($x, "category") = "wanted" and attr($y, "category") = "wanted"
        return <pair/>|}
  in
  Algebra.Expr.query_at join ~at:p1
    ~args:[ Algebra.Expr.doc "cat" ~at:"p2"; Algebra.Expr.doc "cat" ~at:"p3" ]

let test_profiler_sums_to_root () =
  with_telemetry (fun () ->
      Metrics.set_enabled Metrics.default true;
      let { Runtime.Exec.outcome; report } =
        Runtime.Exec.run_profiled (join_system ()) ~ctx:p1 (join_plan ())
      in
      Alcotest.(check bool) "finished" true outcome.Runtime.Exec.finished;
      Alcotest.(check bool)
        "exclusive times sum to root" true
        (Runtime.Profiler.sums_to_root report);
      Alcotest.(check bool)
        "root covers the run" true
        (report.Runtime.Profiler.root_ms > 0.0);
      (* query_app over two doc arguments = 3 operators, each with a
         finite estimate-error ratio. *)
      Alcotest.(check int)
        "one row per operator" 3
        (List.length report.Runtime.Profiler.rows);
      List.iter
        (fun (r : Runtime.Profiler.op_row) ->
          Alcotest.(check bool)
            (r.Runtime.Profiler.op_label ^ " err finite")
            true
            (Float.is_finite r.Runtime.Profiler.err_ratio
            && r.Runtime.Profiler.err_ratio >= 0.0))
        report.Runtime.Profiler.rows;
      (* The estimate-error distribution feeds the metrics registry. *)
      let snapshot = Metrics.snapshot Metrics.default in
      Alcotest.(check bool)
        "est_error_ratio recorded" true
        (List.exists
           (fun (e : Metrics.entry) ->
             e.Metrics.subsystem = "profiler"
             && e.Metrics.name = "est_error_ratio")
           snapshot))

let test_profiler_restores_sampling () =
  with_telemetry (fun () ->
      Trace.set_enabled false;
      Trace.set_sampling ~seed:3 ~keep_one_in:16 ();
      let _ = Runtime.Exec.run_profiled (join_system ()) ~ctx:p1 (join_plan ()) in
      Alcotest.(check bool) "tracing restored off" false (Trace.enabled ());
      Alcotest.(check bool)
        "sampling restored" true
        (Trace.sampling () = (3, 16)))

(* --- exporter escaping -------------------------------------------- *)

let test_exporter_escapes_hostile_names () =
  with_telemetry (fun () ->
      Trace.set_enabled true;
      let ts = 1.0 in
      Trace.instant ~cat:"t\tb" ~peer:"p\x01eer\xC3\xA9" ~ts
        ~args:[ ("k\"ey", "v\\al\nue") ]
        "sp\x7fan\"name";
      let events = Trace.events () in
      let ok_json s =
        (* Structural validity proxy: no raw control bytes survive
           (everything below 0x20 must be escaped to \uNNNN), and the
           quotes balance. *)
        String.for_all (fun c -> c = '\n' || Char.code c >= 0x20) s
        &&
        let quotes = ref 0 and escaped = ref false in
        String.iter
          (fun c ->
            if !escaped then escaped := false
            else if c = '\\' then escaped := true
            else if c = '"' then incr quotes)
          s;
        !quotes mod 2 = 0
      in
      Alcotest.(check bool)
        "chrome trace escapes" true
        (ok_json (Obs.Exporter.chrome_trace events));
      Alcotest.(check bool)
        "jsonl escapes" true
        (ok_json (Obs.Exporter.jsonl events));
      Alcotest.(check bool)
        "sanitize strips terminal controls" true
        (String.for_all
           (fun c -> Char.code c >= 0x20)
           (Obs.Exporter.sanitize "a\x1b[31mred\x07\tb")))

let suite =
  [
    Alcotest.test_case "timeseries: window aggregates" `Quick
      test_window_aggregates;
    Alcotest.test_case "timeseries: ring eviction" `Quick test_ring_eviction;
    Alcotest.test_case "timeseries: rate and quantile" `Quick
      test_rate_and_quantile;
    Alcotest.test_case "timeseries: set_window resets" `Quick
      test_set_window_resets;
    Alcotest.test_case "timeseries: disabled records nothing" `Quick
      test_disabled_records_nothing;
    Alcotest.test_case "timeseries: recording allocates nothing" `Quick
      test_recording_allocates_nothing;
    Alcotest.test_case "sampling: sampled trace is the keep_corr subset"
      `Quick test_sampled_subset;
    QCheck_alcotest.to_alcotest qcheck_sampled_subset;
    Alcotest.test_case "fingerprint: same-seed runs agree" `Quick
      test_fingerprint_deterministic;
    Alcotest.test_case "fingerprint: deterministic under faults + crash"
      `Quick test_fingerprint_deterministic_under_faults;
    Alcotest.test_case "series: doc and peer keys, none per link" `Quick
      test_doc_and_peer_series_recorded;
    Alcotest.test_case "series: in-flight per sending peer" `Quick
      test_inflight_per_sending_peer;
    Alcotest.test_case "series: planning records no document reads" `Quick
      test_planning_is_not_demand;
    Alcotest.test_case "series: bookkeeping records no document reads" `Quick
      test_bookkeeping_is_not_demand;
    Alcotest.test_case "profiler: exclusive times sum to root" `Quick
      test_profiler_sums_to_root;
    Alcotest.test_case "profiler: restores sampling state" `Quick
      test_profiler_restores_sampling;
    Alcotest.test_case "exporter: hostile names escaped" `Quick
      test_exporter_escapes_hostile_names;
  ]
