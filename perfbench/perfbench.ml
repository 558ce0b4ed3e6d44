(* Runs one workload for a fixed CPU time and prints what it measured.

     perfbench.exe --workload NAME --seed N --seconds S [--traced]

   perfbench/run.py is the entry point: it builds this executable,
   runs it untraced (end-to-end metrics) or untraced then traced
   (per-layer metrics), and validates the metric set against
   BENCHMARK.json.  The last line printed here is one JSON object. *)

open Axml
module W = Workloads

(* Every per-layer metric the traced run prints, with its unit.  A
   layer a workload does not exercise reads 0. *)
let per_layer_units =
  [
    ("net.events_per_request", "count");
    ("net.frames_per_request", "count");
    ("net.queue_depth_max", "count");
    ("net.run.cpu_s", "s");
    ("net.run.alloc_words_per_request", "words");
    ("net.run.promoted_words_per_request", "words");
    ("net.xfer_ms_per_request", "sim_ms");
    ("peer.transport.retransmits_per_request", "count");
    ("peer.transport.useful_send_ratio", "fraction");
    ("peer.transport.items_per_batch", "count");
    ("peer.transport.piggybacked_ack_share", "fraction");
    ("peer.transport.abandoned", "count");
    ("peer.codec.bytes_per_frame", "B");
    ("peer.exec.cpu_ms_per_request", "ms");
    ("peer.exec.alloc_words_per_request", "words");
    ("peer.placement.ticks", "count");
    ("peer.placement.committed", "count");
    ("peer.placement.aborted", "count");
    ("peer.busy_ms_per_request", "sim_ms");
    ("axml.store.writes", "count");
    ("axml.store.resident_kb", "kB");
    ("query.qcache.hit_ratio", "fraction");
    ("query.qcache.invalidations", "count");
    ("query.qcache.collisions", "count");
    ("query.index_builds_per_request", "count");
    ("query.index_hits_per_request", "count");
    ("query.fallbacks", "count");
    ("query.compile_ms", "ms");
    ("query.join_probe_cpu_ms", "ms");
    ("algebra.planner.cpu_ms_per_request", "ms");
    ("algebra.planner.explored_per_request", "count");
    ("algebra.planner.equal_calls_per_request", "count");
    ("algebra.cost.bytes_estimate_ratio", "ratio");
    ("xml.index.build_probe_cpu_ms", "ms");
    ("obs.timeseries_keys", "count");
    ("workload.build_cpu_s", "s");
    ("peer.system.build_cpu_s", "s");
    ("workload.latency_p50_ms", "sim_ms");
    ("workload.latency_p99_ms", "sim_ms");
  ]

let end_to_end_units =
  [
    ("requests_per_s", "1/s");
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
    ("bytes_per_request", "B");
    ("completion_ms", "sim_ms");
  ]

(* --- self-tests of the benchmark's own logic ---------------------- *)

let selftest () =
  let fails = ref [] in
  let expect name ok = if not ok then fails := name :: !fails in
  let close a b = Float.abs (a -. b) < 1e-9 in
  let span id parent a b =
    {
      Spans.id;
      parent;
      name = "t";
      rep = 0;
      request = -1;
      cpu_start = a;
      cpu_end = b;
      minor_start = 0.0;
      minor_end = 0.0;
      promoted_start = 0.0;
      promoted_end = 0.0;
      counters = [];
    }
  in
  let root = span 0 (-1) 0.0 10.0 in
  expect "self time without children" (close (Spans.self_time root []) 10.0);
  expect "self time, nested children"
    (close (Spans.self_time root [ span 1 0 1.0 3.0; span 2 0 5.0 6.0 ]) 7.0);
  expect "self time, overlapping children"
    (close (Spans.self_time root [ span 1 0 1.0 4.0; span 2 0 3.0 6.0 ]) 5.0);
  expect "self time, child past the parent's end"
    (close (Spans.self_time root [ span 1 0 8.0 12.0 ]) 8.0);
  let samples n = List.init n float_of_int in
  let p99 n = Measure.percentile ~q:0.99 (samples n) in
  expect "p99 reportable at 1000 samples" (Measure.reportable (p99 1000));
  expect "p99 not reportable at 999 samples" (not (Measure.reportable (p99 999)));
  expect "p99 value" (close (p99 1000).Measure.value 989.0);
  expect "p50 value" (close (Measure.percentile ~q:0.5 (samples 11)).Measure.value 5.0);
  expect "median, even count" (close (Measure.median [ 4.0; 1.0; 3.0; 2.0 ]) 2.5);
  List.rev !fails

(* --- layer counters, read through public APIs --------------------- *)

let max_stamp sys =
  List.fold_left
    (fun acc (p : Runtime.Peer.t) ->
      List.fold_left
        (fun acc name ->
          match
            Runtime.System.doc_version sys ~peer:p.Runtime.Peer.id
              ~doc:(Doc.Names.Doc_name.to_string name)
          with
          | Some v -> max acc v
          | None -> acc)
        acc
        (Doc.Store.names p.Runtime.Peer.store))
    0 (Runtime.System.peers sys)

let documents sys =
  List.concat_map
    (fun (p : Runtime.Peer.t) ->
      List.map Doc.Document.root (Doc.Store.documents p.Runtime.Peer.store))
    (Runtime.System.peers sys)

(* Layer counters read through public APIs after a traced run. *)
let layer_counters (inst : W.instance) (o : W.outcome) ~stamp0 =
  let sys = inst.W.system in
  let per x = if o.W.completed = 0 then 0.0 else x /. float_of_int o.W.completed in
  let rc = Runtime.System.reliability_counters sys in
  let qc = Runtime.System.qcache_stats sys in
  let m = Obs.Metrics.default in
  let total sub name = Obs.Metrics.total m ~subsystem:sub name in
  let logical = o.W.logical - rc.Runtime.System.acks_sent in
  let docs = documents sys in
  let index_probe () =
    List.iter (fun t -> ignore (Sys.opaque_identity (Xml.Index.build t))) docs
  in
  [
    ("net.events_per_request", per (float_of_int o.W.events));
    ("net.frames_per_request", per (float_of_int o.W.frames));
    ("net.queue_depth_max", total "sim" "queue_depth");
    ("net.xfer_ms_per_request", per o.W.xfer_ms);
    ("peer.transport.retransmits_per_request", per (float_of_int rc.Runtime.System.retransmits));
    ( "peer.transport.useful_send_ratio",
      W.fdiv (logical - rc.Runtime.System.retransmits) logical );
    ( "peer.transport.items_per_batch",
      W.fdiv rc.Runtime.System.batched_messages rc.Runtime.System.batches_sent );
    ( "peer.transport.piggybacked_ack_share",
      W.fdiv rc.Runtime.System.piggybacked_acks
        (rc.Runtime.System.piggybacked_acks + rc.Runtime.System.acks_sent) );
    ("peer.transport.abandoned", float_of_int rc.Runtime.System.abandoned);
    ("peer.codec.bytes_per_frame", W.fdiv o.W.bytes o.W.frames);
    ("peer.busy_ms_per_request", per (total "peer" "cpu_ms"));
    ("axml.store.writes", float_of_int (max_stamp sys - stamp0));
    ( "axml.store.resident_kb",
      float_of_int (List.fold_left (fun acc t -> acc + Xml.Tree.byte_size t) 0 docs)
      /. 1000.0 );
    ("query.qcache.hit_ratio", W.fdiv qc.Query.Qcache.hits (qc.Query.Qcache.hits + qc.Query.Qcache.misses));
    ( "query.qcache.invalidations",
      float_of_int (qc.Query.Qcache.invalidations + qc.Query.Qcache.stale_drops) );
    ("query.qcache.collisions", float_of_int qc.Query.Qcache.collisions);
    ("query.index_builds_per_request", per (total "query" "index_builds"));
    ("query.index_hits_per_request", per (total "query" "index_hits"));
    ("query.fallbacks", total "query" "fallback");
    ("query.compile_ms", total "query" "compile_ms");
    ( "xml.index.build_probe_cpu_ms",
      1000.0
      *. Measure.median
           (List.init 3 (fun _ ->
                snd (Measure.cpu (fun () -> Spans.with_span "xml.index.build_probe" index_probe)))) );
    ("obs.timeseries_keys", float_of_int (List.length (Obs.Timeseries.keys Obs.Timeseries.default)));
  ]
  @ inst.W.layers ()

(* --- one rep: set up, run, observe -------------------------------- *)

type rep = {
  setup_s : float;  (** Normalised; mean over the rep's instances. *)
  run_s : float;  (** Normalised; sum over the rep's instances. *)
  raw_run_s : float;  (** Process CPU; sum over the rep's instances. *)
  kernel_s : float;  (** Calibration kernel; mean over the instances. *)
  heap_mb : float;  (** High-water after the rep's first run phase. *)
  outcome : W.outcome;  (** The rep's instances merged. *)
  layers : (string * float) list;  (** The first traced instance only. *)
}

let run_instance (w : W.t) ~seed ~traced ~probe =
  (* Same-seed reps must replay exactly: restart the process-global
     correlation counter that message envelopes carry. *)
  Obs.Trace.clear ();
  if traced then Obs.Metrics.reset Obs.Metrics.default;
  Gc.compact ();
  let inst, setup_s =
    Measure.cpu (fun () -> Spans.with_span "setup" (fun () -> w.W.setup ~seed))
  in
  let stamp0 = if probe then max_stamp inst.W.system else 0 in
  Gc.compact ();
  let (), run_s = Measure.cpu (fun () -> Spans.with_span "run" inst.W.run) in
  let heap_mb = Measure.top_heap_mb () in
  (* Calibrated after the heap is read, so the first instance's
     high-water is the program's alone. *)
  let kernel_s = Measure.calibrate () in
  let outcome = Spans.with_span "observe" inst.W.observe in
  let layers =
    if probe then
      Spans.with_span "layer_probes" (fun () -> layer_counters inst outcome ~stamp0)
    else []
  in
  (setup_s, run_s, kernel_s, heap_mb, outcome, layers)

let run_rep (w : W.t) ~seed ~traced ~index =
  Spans.current_rep := index;
  let rec go i acc =
    if i = w.W.instances then List.rev acc
    else
      let r =
        run_instance w ~seed:(W.instance_seed w ~seed i) ~traced
          ~probe:(traced && index = 0 && i = 0)
      in
      go (i + 1) (r :: acc)
  in
  let results = go 0 [] in
  let n = float_of_int w.W.instances in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 results in
  let _, _, _, heap_mb, _, layers = List.hd results in
  {
    setup_s =
      sum (fun (s, _, k, _, _, _) -> Measure.normalise ~kernel_s:k s) /. n;
    run_s = sum (fun (_, r, k, _, _, _) -> Measure.normalise ~kernel_s:k r);
    raw_run_s = sum (fun (_, r, _, _, _, _) -> r);
    kernel_s = sum (fun (_, _, k, _, _, _) -> k) /. n;
    heap_mb;
    outcome = W.merge (List.map (fun (_, _, _, _, o, _) -> o) results);
    layers;
  }

(* --- reporting ---------------------------------------------------- *)

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_metrics metrics =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, unit, value) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float value) unit)
         metrics)
  ^ "}"

let list_metrics () =
  let pairs l =
    "[" ^ String.concat ", " (List.map (fun (n, u) -> Printf.sprintf "[%S, %S]" n u) l) ^ "]"
  in
  Printf.printf "{\"end_to_end\": %s, \"per_layer\": %s, \"workloads\": [%s]}\n"
    (pairs end_to_end_units) (pairs per_layer_units)
    (String.concat ", " (List.map (fun w -> Printf.sprintf "%S" w.W.name) W.all));
  exit 0

(* Per-layer metrics of a traced run: spans give CPU and allocation
   (medians over reps of each rep's total), the first rep's probes give
   the counters.  A layer the workload does not exercise reads 0. *)
let per_layer (w : W.t) reps spans ~per ~latencies =
  let rep_median name f =
    Measure.median
      (List.mapi
         (fun i _ ->
           List.fold_left
             (fun acc s -> if s.Spans.name = name && s.Spans.rep = i then acc +. f s else acc)
             0.0 spans)
         reps)
  in
  let per_instance x = x /. float_of_int w.W.instances in
  let p50 = Measure.percentile ~q:0.5 latencies
  and p99 = Measure.percentile ~q:0.99 latencies in
  let computed =
    [
      ("net.run.cpu_s", per_instance (rep_median "net.run" Spans.duration));
      ("net.run.alloc_words_per_request", per (rep_median "net.run" Spans.minor_words));
      ("net.run.promoted_words_per_request", per (rep_median "net.run" Spans.promoted_words));
      ( "peer.exec.cpu_ms_per_request",
        1000.0 *. per (rep_median "peer.exec.run_to_quiescence" Spans.duration) );
      ( "peer.exec.alloc_words_per_request",
        per (rep_median "peer.exec.run_to_quiescence" Spans.minor_words) );
      ( "algebra.planner.cpu_ms_per_request",
        1000.0 *. per (rep_median "algebra.planner.plan" Spans.duration) );
      ("workload.build_cpu_s", per_instance (rep_median "workload.build" Spans.duration));
      ( "peer.system.build_cpu_s",
        per_instance
          (rep_median "peer.system.create" Spans.duration
          +. rep_median "peer.system.add_document" Spans.duration
          +. rep_median "peer.placement.enable" Spans.duration) );
      ("workload.latency_p50_ms", if p50.Measure.samples > 0 then p50.Measure.value else 0.0);
      ("workload.latency_p99_ms", if Measure.reportable p99 then p99.Measure.value else 0.0);
    ]
    @ (List.hd reps).layers
  in
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n per_layer_units) then
        failwith ("undeclared per-layer metric " ^ n))
    computed;
  List.map
    (fun (n, u) -> (n, u, Option.value ~default:0.0 (List.assoc_opt n computed)))
    per_layer_units

let report_percentile ~tail label p =
  if p.Measure.samples = 0 then Printf.printf "  %s: not recorded on this workload\n" label
  else if (not tail) || Measure.reportable p then
    Printf.printf "  %s: %.3f sim_ms (%d samples, %d beyond)\n" label p.Measure.value
      p.Measure.samples p.Measure.beyond
  else
    Printf.printf "  %s: not reported (%d samples, %d beyond; needs 10)\n" label
      p.Measure.samples p.Measure.beyond

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let traced = ref false and selftest_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S CPU seconds to measure for");
      ("--traced", Arg.Set traced, " record spans and layer counters");
      ("--selftest", Arg.Set selftest_only, " run the self-tests only");
      ("--list-metrics", Arg.Unit list_metrics, " print the metric and workload names");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S [--traced]";
  (match selftest () with
  | [] ->
      if !selftest_only then begin
        print_endline "{\"selftest\": \"passed\"}";
        exit 0
      end
  | fails ->
      List.iter (Printf.eprintf "self-test failed: %s\n") fails;
      exit 2);
  let w =
    match W.find !workload with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (known: %s)\n" !workload
          (String.concat ", " (List.map (fun w -> w.W.name) W.all));
        exit 2
  in
  let seed = !seed and traced = !traced in
  Measure.configure_gc ();
  if traced then begin
    Spans.enabled := true;
    Obs.Metrics.set_enabled Obs.Metrics.default true
  end;
  (* Reps repeat the same seeded work until the CPU budget is spent;
     timings are reported as medians over reps. *)
  let min_reps = 3 and max_reps = 200 in
  let t0 = Sys.time () in
  let rec loop acc n =
    if n >= max_reps || (n >= min_reps && Sys.time () -. t0 >= !seconds) then List.rev acc
    else loop (run_rep w ~seed ~traced ~index:n :: acc) (n + 1)
  in
  let reps = loop [] 0 in
  let first = List.hd reps in
  let o = first.outcome in
  (* Outputs must replay exactly across same-seed reps and match the
     reference arm, which runs after the timed reps so it cannot
     disturb them. *)
  let same_as_first r =
    let a = r.outcome in
    a.W.events = o.W.events && a.W.frames = o.W.frames && a.W.bytes = o.W.bytes
    && a.W.completion_ms = o.W.completion_ms
    && a.W.digest = o.W.digest && a.W.completed = o.W.completed
  in
  let reference =
    Spans.with_span "check.reference" (fun () ->
        Option.map
          (fun f ->
            String.concat "+"
              (List.init w.W.instances (fun i -> f ~seed:(W.instance_seed w ~seed i))))
          w.W.reference)
  in
  let problems =
    List.concat_map (fun r -> r.outcome.W.problems) reps
    @ (if List.for_all same_as_first reps then []
       else [ "same-seed reps disagree on their outputs" ])
    @
    match reference with
    | Some d when d <> o.W.digest -> [ "outputs differ from the reference arm" ]
    | _ -> []
  in
  let completed = o.W.completed and attempted = o.W.attempted in
  let per x = x /. float_of_int (max 1 completed) in
  let med f = Measure.median (List.map f reps) in
  let spans = Spans.all () in
  let metrics =
    if traced then per_layer w reps spans ~per ~latencies:o.W.latencies
    else
      let e2e =
        [
          ("requests_per_s", med (fun r -> float_of_int r.outcome.W.completed /. r.run_s));
          ("setup_s", med (fun r -> r.setup_s));
          (* The first run phase's high-water: the major heap never
             shrinks, so later ones would add earlier fragmentation. *)
          ("peak_heap_mb", first.heap_mb);
          ("bytes_per_request", per (float_of_int o.W.bytes));
          ("completion_ms", o.W.completion_ms);
        ]
      in
      List.map (fun (n, u) -> (n, u, List.assoc n e2e)) end_to_end_units
  in
  (* Human-readable report; the JSON line at the end is what tools read. *)
  Printf.printf "workload %s  seed %d  %s  reps %d of %d instances  gc %s\n" w.W.name seed
    (if traced then "traced" else "untraced")
    (List.length reps) w.W.instances (Measure.gc_config ());
  Printf.printf
    "  times are normalised to a %.3f s calibration kernel; raw CPU shown in brackets\n"
    Measure.reference_kernel_s;
  List.iteri
    (fun i r ->
      Printf.printf
        "  rep %d: setup %.4f s  run %.4f s (CPU %.4f s, kernel %.4f s)  top heap %.1f MB\n"
        (i + 1) r.setup_s r.run_s r.raw_run_s r.kernel_s r.heap_mb)
    reps;
  Printf.printf "  requests %d attempted, %d completed, failed_share %.4f\n" attempted
    completed
    (float_of_int (attempted - completed) /. float_of_int (max 1 attempted));
  let p50 = Measure.percentile ~q:0.5 o.W.latencies
  and p99 = Measure.percentile ~q:0.99 o.W.latencies in
  report_percentile ~tail:false "latency_p50_ms" p50;
  report_percentile ~tail:true "latency_p99_ms" p99;
  List.iter (fun (n, u, v) -> Printf.printf "  %-42s %14.6g %s\n" n v u) metrics;
  if traced then begin
    Printf.printf "  spans (name, count, total s, self s, minor words, promoted words):\n";
    List.iter
      (fun (n, (s : Spans.summary)) ->
        Printf.printf "    %-32s %6d %10.4f %10.4f %14.0f %12.0f\n" n s.Spans.count
          s.Spans.total_s s.Spans.self_s s.Spans.minor s.Spans.promoted)
      (Spans.summarize spans);
    print_string
      "  not split here: CPU inside one simulation slice among Sim, transport,\n\
      \   codec and store; that needs spans inside the program.\n";
    let dir = ".perfbench" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Printf.sprintf "%s/spans-%s-seed%d.jsonl" dir w.W.name seed in
    Spans.write path spans;
    Printf.printf "  spans written to %s\n" path
  end;
  List.iter (Printf.printf "  CHECK FAILED: %s\n") problems;
  let sum f = List.fold_left (fun acc r -> acc + f r.outcome) 0 reps in
  Printf.printf
    "{\"workload\": %S, \"seed\": %d, \"traced\": %b, \"correct\": %b, \"attempted\": %d, \
     \"failed\": %d, \"reps\": %d, \"calibrated_run_s\": %s, \
     \"deterministic\": {\"events\": %d, \
     \"frames\": %d, \"bytes\": %d, \"completion_ms\": %s, \"latency_p50_ms\": %s, \
     \"latency_p99_ms\": %s, \"digest\": %S}, \"metrics\": %s}\n"
    w.W.name seed traced (problems = [])
    (sum (fun o -> o.W.attempted))
    (sum (fun o -> o.W.attempted - o.W.completed))
    (List.length reps)
    (json_float (med (fun r -> r.run_s)))
    o.W.events o.W.frames o.W.bytes (json_float o.W.completion_ms)
    (json_float p50.Measure.value) (json_float p99.Measure.value) o.W.digest
    (json_metrics metrics);
  exit (if problems = [] then 0 else 1)
