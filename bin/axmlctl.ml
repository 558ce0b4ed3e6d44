(* axmlctl — command-line front end to the distributed AXML framework.

   Sub-commands:
     parse      parse an XML file and pretty-print it
     query      run a query over XML documents
     rules      list the rewrites applicable to a serialized plan
     optimize   optimize a serialized plan under the cost model
     explain    run the unified planner and print its explain record
     demo       run the Example-1 demonstration end to end
     trace      run the traced Example-1 and export spans + metrics
     chaos      run the reference plans under seeded faults
     scale      run the flash-crowd scenario and print tier traffic
     place      hotspot scenario, static vs adaptive placement arms
     cache      overlap workload, semantic result cache off vs on
     top        flash-crowd under windowed telemetry; per-peer table *)

open Cmdliner
open Axml
module Runner = Axml_bench.Runner
module Registry = Axml_bench.Registry

let read_file = Runner.read_file

let opt kind names default docv doc =
  Arg.(value & opt kind default & info names ~docv ~doc)

let switch names doc = Arg.(value & flag & info names ~doc)

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline msg;
      exit 1

(* --- parse ----------------------------------------------------- *)

let parse_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"XML file")
  in
  let keep_ws =
    Arg.(value & flag & info [ "keep-whitespace" ] ~doc:"Keep whitespace-only text nodes")
  in
  let run file keep_ws =
    let gen = Xml.Node_id.Gen.create ~namespace:"cli" in
    match Xml.Parser.parse ~keep_ws ~gen (read_file file) with
    | Ok t ->
        print_string (Xml.Serializer.to_string_pretty t);
        Format.printf "@.; %d nodes, %d bytes, depth %d@." (Xml.Tree.size t)
          (Xml.Tree.byte_size t) (Xml.Tree.depth t)
    | Error e ->
        Format.eprintf "%a@." Xml.Parser.pp_error e;
        exit 1
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Parse an XML file and pretty-print it")
    Term.(const run $ file $ keep_ws)

(* --- query ----------------------------------------------------- *)

let query_cmd =
  let qarg =
    Arg.(
      required
      & opt (some string) None
      & info [ "q"; "query" ] ~docv:"QUERY" ~doc:"Query text (see README for syntax)")
  in
  let files =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:"Input documents")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "EXPLAIN ANALYZE: run the query on a synthetic distributed \
             system (a driver peer plus one peer per input document) under \
             the per-operator profiler, and print planner cost estimates \
             next to the observed per-operator costs.  Exits non-zero if \
             the per-operator sim times fail to sum to the root span")
  in
  (* The profiled path re-creates the query as a distributed plan: each
     input file becomes a document installed on its own peer of a
     synthetic mesh, so the operator table shows real transfer and
     delivery costs, not a local evaluation. *)
  let run_profile q files =
    let driver = Net.Peer_id.of_string "p1" in
    let holders =
      List.mapi
        (fun i _ -> Net.Peer_id.of_string (Printf.sprintf "p%d" (i + 2)))
        files
    in
    let topo =
      Net.Topology.full_mesh
        ~link:(Net.Link.make ~latency_ms:10.0 ~bandwidth_bytes_per_ms:100.0)
        (driver :: holders)
    in
    let sys = Runtime.System.create topo in
    Obs.Metrics.set_enabled Obs.Metrics.default true;
    Obs.Metrics.reset Obs.Metrics.default;
    let args =
      List.mapi
        (fun i (f, p) ->
          let gen = Runtime.System.gen_of sys p in
          match Xml.Parser.parse ~gen (read_file f) with
          | Ok t ->
              let name = Printf.sprintf "in%d" (i + 1) in
              Runtime.System.add_document sys p ~name t;
              Algebra.Expr.doc name ~at:(Net.Peer_id.to_string p)
          | Error e ->
              Format.eprintf "%s: %a@." f Xml.Parser.pp_error e;
              exit 1)
        (List.combine files holders)
    in
    let plan = Algebra.Expr.query_at q ~at:driver ~args in
    let { Runtime.Exec.outcome; report } =
      Runtime.Exec.run_profiled sys ~ctx:driver plan
    in
    List.iter
      (fun t -> print_string (Xml.Serializer.to_string_pretty t))
      outcome.Runtime.Exec.results;
    Format.printf "; %d result(s), %.1f sim ms, %d bytes on the wire@.@."
      (List.length outcome.Runtime.Exec.results)
      outcome.Runtime.Exec.elapsed_ms outcome.Runtime.Exec.stats.Net.Stats.bytes;
    Format.printf "%a@." Runtime.Profiler.pp_report report;
    if not (Runtime.Profiler.sums_to_root report) then exit 1
  in
  let run qtext profile files =
    let q =
      match Query.Parser.parse qtext with
      | Ok q -> q
      | Error e ->
          Format.eprintf "%a@." Query.Parser.pp_error e;
          exit 1
    in
    if Query.Ast.arity q <> List.length files then begin
      Format.eprintf "query expects %d input(s), %d file(s) given@."
        (Query.Ast.arity q) (List.length files);
      exit 1
    end;
    if profile then run_profile q files
    else begin
      let gen = Xml.Node_id.Gen.create ~namespace:"cli" in
      let inputs =
        List.map
          (fun f ->
            match Xml.Parser.parse_forest ~gen (read_file f) with
            | Ok forest -> forest
            | Error e ->
                Format.eprintf "%s: %a@." f Xml.Parser.pp_error e;
                exit 1)
          files
      in
      let out = Query.Compile.eval ~gen q inputs in
      List.iter (fun t -> print_string (Xml.Serializer.to_string_pretty t)) out;
      Format.printf "; %d result(s)@." (List.length out)
    end
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Evaluate a query over XML documents")
    Term.(const run $ qarg $ profile $ files)

(* --- shared plan options --------------------------------------- *)

let plan_arg =
  Arg.(
    required & pos 0 (some file) None
    & info [] ~docv:"PLAN" ~doc:"Serialized expression (see Expr_xml)")

let peers_arg =
  Arg.(
    value
    & opt (list string) [ "p1"; "p2"; "p3" ]
    & info [ "peers" ] ~docv:"PEERS" ~doc:"Peer identifiers of the system")

let ctx_arg =
  Arg.(
    value & opt string "p1"
    & info [ "ctx" ] ~docv:"PEER" ~doc:"Driver peer (eval@ctx)")

let load_plan path = or_die (Algebra.Expr_xml.of_xml_string (read_file path))

(* --- rules ------------------------------------------------------ *)

let rules_cmd =
  let run plan peers =
    let e = load_plan plan in
    let peers = List.map Net.Peer_id.of_string peers in
    let n = ref 0 in
    let fresh () =
      incr n;
      Printf.sprintf "_tmp_cli%d" !n
    in
    let rewrites = Algebra.Rewrite.everywhere ~peers ~fresh e in
    Format.printf "plan: %a@.%d rewrite(s):@." Algebra.Expr.pp e
      (List.length rewrites);
    List.iter
      (fun (r : Algebra.Rewrite.rewrite) ->
        Format.printf "  %a@." Algebra.Rewrite.pp_rewrite r)
      rewrites
  in
  Cmd.v
    (Cmd.info "rules" ~doc:"List rewrites applicable to a plan")
    Term.(const run $ plan_arg $ peers_arg)

(* --- optimize / explain ------------------------------------------ *)

let expansions_arg =
  Arg.(
    value & opt int 64
    & info [ "expansions" ] ~doc:"Best-first expansion budget")

let latency_arg =
  Arg.(value & opt float 10.0 & info [ "latency" ] ~doc:"Mesh latency (ms)")

let bandwidth_arg =
  Arg.(
    value & opt float 100.0 & info [ "bandwidth" ] ~doc:"Mesh bandwidth (B/ms)")

let doc_bytes_arg =
  Arg.(
    value & opt int 16384
    & info [ "doc-bytes" ] ~doc:"Assumed size of referenced documents")

(* The synthetic mesh always covers the peers the plan itself
   mentions — a plan referencing a peer missing from --peers would
   otherwise crash the cost model's link lookup. *)
let mesh_env ~plan ~peers ~latency ~bandwidth ~doc_bytes =
  let peer_ids =
    List.fold_left
      (fun acc p -> if List.exists (Net.Peer_id.equal p) acc then acc else acc @ [ p ])
      (List.map Net.Peer_id.of_string peers)
      (Algebra.Expr.peers plan)
  in
  let topo =
    Net.Topology.full_mesh
      ~link:(Net.Link.make ~latency_ms:latency ~bandwidth_bytes_per_ms:bandwidth)
      peer_ids
  in
  Algebra.Cost.default_env ~doc_bytes:(fun _ -> doc_bytes) topo

(* The plan, its synthetic-mesh cost environment, the driver peer and
   the best-first search: what optimize and explain both start from. *)
let search_term =
  let setup plan peers ctx expansions latency bandwidth doc_bytes =
    let e = load_plan plan in
    ( e,
      mesh_env ~plan:e ~peers:(ctx :: peers) ~latency ~bandwidth ~doc_bytes,
      Net.Peer_id.of_string ctx,
      Algebra.Optimizer.Best_first { max_expansions = expansions } )
  in
  Term.(
    const setup $ plan_arg $ peers_arg $ ctx_arg $ expansions_arg $ latency_arg
    $ bandwidth_arg $ doc_bytes_arg)

let optimize_cmd =
  let run (e, env, ctx, strategy) =
    let result = Algebra.Optimizer.optimize ~env ~ctx strategy e in
    Format.printf "%a@." Algebra.Optimizer.pp_result result;
    print_endline "; serialized best plan:";
    print_endline (Algebra.Expr_xml.to_xml_string result.plan)
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Optimize a serialized plan")
    Term.(const run $ search_term)

let explain_cmd =
  let json = switch [ "json" ] "Emit the explain record as a JSON object" in
  let run (e, env, ctx, strategy) json =
    let result = Algebra.Planner.plan ~env ~ctx strategy e in
    if json then print_endline (Algebra.Planner.explain_json result)
    else Format.printf "%a@." Algebra.Planner.pp_result result
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Run the unified planner (rewrite search + per-site query \
          optimization) and print its explain record")
    Term.(const run $ search_term $ json)

(* --- demo / trace: Example 1 ------------------------------------- *)

let items_arg = opt Arg.int [ "items" ] 200 "N" "Catalog items"
let selectivity_arg = opt Arg.float [ "selectivity" ] 0.05 "P" "Matching fraction"

let p1, p2 = Axml_bench.Paper.(p1, p2)

(* Example 1's system: a seeded catalog at p2, queried from p1.  The
   window knobs imply the Reliable transport: batch frames and delayed
   acks only exist in the sequenced protocol. *)
let example1 ?(flush_ms = 0.0) ?(ack_delay_ms = 0.0) ~items ~selectivity () =
  let transport =
    if flush_ms > 0.0 || ack_delay_ms > 0.0 then Runtime.System.Reliable
    else Runtime.System.Raw
  in
  let sys =
    Runtime.System.create ~transport ~flush_ms ~ack_delay_ms
      (Net.Topology.full_mesh ~link:Axml_bench.Paper.default_link [ p1; p2 ])
  in
  let rng = Workload.Rng.create ~seed:2026 in
  Runtime.System.add_document sys p2 ~name:"cat"
    (Workload.Xml_gen.catalog ~gen:(Runtime.System.gen_of sys p2) ~rng ~items
       ~selectivity ());
  sys

let example1_plan () =
  Algebra.Expr.query_at (Workload.Xml_gen.selection_query ()) ~at:p1
    ~args:[ Algebra.Expr.doc "cat" ~at:"p2" ]

let demo_cmd =
  let trace = switch [ "trace" ] "Print the message trace of the optimized run" in
  let run items selectivity trace =
    let build () = example1 ~items ~selectivity () in
    let naive = example1_plan () in
    let warn_truncated label (out : Runtime.Exec.outcome) =
      if out.termination = `Budget_exhausted then
        Format.eprintf
          "warning: %s run hit the event budget after %d events — results \
           are truncated@."
          label out.events
    in
    let out1 = Runtime.Exec.run_to_quiescence (build ()) ~ctx:p1 naive in
    warn_truncated "naive" out1;
    Format.printf "naive:  %6d bytes  %5.1f ms  %d results@." out1.stats.bytes
      out1.elapsed_ms (List.length out1.results);
    match Algebra.Rewrite.r11_push_selection naive with
    | [ r ] ->
        let sys2 = build () in
        Obs.Trace.set_enabled trace;
        Obs.Trace.clear ();
        let out2 = Runtime.Exec.run_to_quiescence sys2 ~ctx:p1 r.result in
        Obs.Trace.set_enabled false;
        warn_truncated "pushed" out2;
        Format.printf "pushed: %6d bytes  %5.1f ms  %d results@."
          out2.stats.bytes out2.elapsed_ms
          (List.length out2.results);
        Format.printf "same answers: %b; bytes ratio: %.1fx@."
          (Xml.Canonical.equal_forest out1.results out2.results)
          (float_of_int out1.stats.bytes /. float_of_int (max 1 out2.stats.bytes));
        if trace then begin
          Format.printf "@.message trace of the pushed plan:@.";
          List.iter
            (fun (x : Net.Sim.xfer) ->
              if not (Net.Peer_id.equal x.src x.dst) then
                Format.printf "  %a@." Net.Sim.pp_xfer x)
            (Net.Sim.xfers (Obs.Trace.events ()))
        end
    | _ -> prerr_endline "selection not pushable?"
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run the Example-1 (pushing selections) demo")
    Term.(const run $ items_arg $ selectivity_arg $ trace)

let trace_cmd =
  let out = opt Arg.string [ "out"; "o" ] "trace.json" "FILE" "Trace output file" in
  let format =
    opt
      (Arg.enum [ ("chrome", `Chrome); ("jsonl", `Jsonl) ])
      [ "format" ] `Chrome "chrome|jsonl"
      "Trace format: $(b,chrome) is the trace_event JSON loadable in \
       Perfetto / chrome://tracing, $(b,jsonl) is one event object per line"
  in
  let metrics_out =
    opt Arg.(some string) [ "metrics-out" ] None "FILE"
      "Also write the metrics registry as a JSON array"
  in
  let flush_ms =
    opt Arg.float [ "flush-ms" ] 0.0 "MS"
      "Coalescing window of the Reliable transport; a positive value runs \
       the traced plans over Reliable instead of Raw"
  in
  let ack_delay =
    opt Arg.float [ "ack-delay" ] 0.0 "MS"
      "Standalone-ack deferral of the Reliable transport; a positive value \
       runs the traced plans over Reliable instead of Raw"
  in
  let run items selectivity out format metrics_out flush_ms ack_delay_ms =
    (* Example-1 (pushing selections), instrumented: the naive plan and
       the planner's plan run back to back under tracing + metrics, and
       every span of one run carries that run's correlation id. *)
    Obs.Trace.set_enabled true;
    Obs.Trace.clear ();
    Obs.Metrics.set_enabled Obs.Metrics.default true;
    Obs.Metrics.reset Obs.Metrics.default;
    let build () = example1 ~flush_ms ~ack_delay_ms ~items ~selectivity () in
    let naive = example1_plan () in
    let out_naive = Runtime.Exec.run_to_quiescence (build ()) ~ctx:p1 naive in
    let _planned, out_planned = Runtime.Exec.run_optimized (build ()) ~ctx:p1 naive in
    Format.printf "naive:   %6d bytes  %5.1f ms  %d results@."
      out_naive.stats.bytes out_naive.elapsed_ms
      (List.length out_naive.results);
    Format.printf "planned: %6d bytes  %5.1f ms  %d results@."
      out_planned.stats.bytes out_planned.elapsed_ms
      (List.length out_planned.results);
    let events = Obs.Trace.events () in
    Runner.write_file out
      (match format with
      | `Chrome -> Obs.Exporter.chrome_trace events
      | `Jsonl -> Obs.Exporter.jsonl events);
    Format.printf "wrote %d trace events to %s@." (List.length events) out;
    Option.iter
      (fun path ->
        Runner.write_file path (Obs.Exporter.metrics_json Obs.Metrics.default);
        Format.printf "wrote metrics to %s@." path)
      metrics_out;
    Format.printf "@.%a@." Obs.Metrics.pp_table Obs.Metrics.default;
    (* Cross-checks: per sending peer, the bytes of the xfer spans must
       agree byte-for-byte with what Stats charged, and at least one
       correlation id must span several peers (a cross-peer causal
       chain). *)
    let xfers = Net.Sim.xfers events in
    let agree =
      List.map
        (fun p ->
          let sent =
            List.fold_left
              (fun acc (out : Runtime.Exec.outcome) ->
                acc + snd (Axml_bench.Paper.stats_sent out.stats p))
              0 [ out_naive; out_planned ]
          in
          let traced = Axml_bench.Paper.traced_sent xfers p in
          Format.printf "%a sent %d B (xfer spans: %d B)@." Net.Peer_id.pp p sent
            traced;
          sent = traced)
        [ p1; p2 ]
      |> List.for_all Fun.id
    in
    Format.printf "trace vs stats bytes: %s@."
      (if agree then "agree" else "DISAGREE");
    (match Axml_bench.Paper.cross_peer_corrs events with
    | 0 ->
        prerr_endline "error: no correlation id spans more than one peer";
        exit 1
    | n -> Format.printf "%d correlation id(s) span >=2 peers@." n);
    if not agree then exit 1
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run the traced Example-1 scenario (naive and planner-optimized) \
          and export the causal trace plus per-peer metrics")
    Term.(
      const run $ items_arg $ selectivity_arg $ out $ format $ metrics_out
      $ flush_ms $ ack_delay)

(* --- registry aliases: chaos, scale, place, cache, top ------------- *)

(* Each verb builds a tier of one experiment-registry entry from its
   flags and runs it through the registry's runner, which prints the
   tables and gate verdicts.  Exit codes: 1 when an invariant gate
   fails, 3 under --slo when any gate fails. *)

let alias ?(slo = false) ?arms e tier =
  exit (Runner.exit_code ~slo (Runner.run ?arms e tier))

let seed_arg default = opt Arg.int [ "seed" ] default "S" "Scenario seed"

let slo_arg =
  switch [ "slo" ]
    "Exit with code 3 when any of the run's gates failed, its SLO gates \
     included: unserved requests, abandoned reliable deliveries, \
     event-budget exhaustion and the verb's own service checks (computed \
     from runtime counters, independent of telemetry)"

(* The wire format is orthogonal to the transport, so every verb that
   builds a system takes both. *)
let wire_arg =
  opt (Arg.enum Registry.wires) [ "wire" ] Runtime.System.Xml "FORMAT"
    "Wire format for byte accounting: $(b,xml) (the textual \
     serialization model), $(b,binary) (compact frames, DESIGN.md \
     \xC2\xA716), or $(b,binary-strict) (binary plus a full encode/decode \
     round-trip of every transmission).  The delivered results and the \
     final \xCE\xA3 are wire-independent."

let chaos_cmd =
  let run seed drop raw flush_ms ack_delay_ms wire slo =
    alias ~slo Registry.chaos { seed; drop; raw; flush_ms; ack_delay_ms; wire }
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the reference plans under a seeded fault plan and check the \
          reliable transport reproduces the fault-free answers")
    Term.(
      const run
      $ opt Arg.int [ "seed" ] 1 "S" "Fault plan seed"
      $ opt Arg.float [ "drop" ] 0.2 "P" "Per-message drop probability"
      $ switch [ "raw" ]
          "Use the Raw transport under the same faults (ablation; \
           divergence is expected and does not fail the command)"
      $ opt Arg.float [ "flush-ms" ] 0.0 "MS"
          "Coalescing window of the Reliable transport under test (0 ships \
           each message on send; ignored with $(b,--raw))"
      $ opt Arg.float [ "ack-delay" ] 0.0 "MS"
          "Standalone-ack deferral of the Reliable transport under test (0 \
           acks each message on arrival; ignored with $(b,--raw))"
      $ wire_arg $ slo_arg)

(* Shared by scale and top: the flash-crowd shape and its transport. *)
let crowd_term =
  let crowd peers subscribers requests seed reliable =
    let mirrors = peers - subscribers - 1 in
    if mirrors < 1 then begin
      prerr_endline
        "error: --peers must exceed --subscribers by at least 2 (one \
         publisher, one mirror)";
      exit 1
    end;
    ( { Registry.points = [ (mirrors, subscribers, requests) ]; seed },
      if reliable then Runtime.System.Reliable else Runtime.System.Raw )
  in
  Term.(
    const crowd
    $ opt Arg.int [ "peers" ] 100 "N"
        "Total peer count: one publisher, $(b,--subscribers) subscribers, \
         and the rest mirrors"
    $ opt Arg.int [ "subscribers" ] 80 "M" "Subscriber count"
    $ opt Arg.int [ "requests" ] 4 "R" "Requests per subscriber"
    $ seed_arg 1
    $ switch [ "reliable" ] "Use the Reliable transport (default: Raw)")

let scale_cmd =
  let run (crowd, transport) wire slo =
    let name = if transport = Runtime.System.Raw then "raw" else "reliable" in
    alias ~slo
      ~arms:[ (name, { Registry.plain with transport; wire }) ]
      Registry.e20 crowd
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Run the web-scale flash-crowd scenario (registry entry E20: one \
          publisher, a mirror pool behind a generic fetch class, a \
          subscriber crowd) and print throughput plus per-tier traffic")
    Term.(const run $ crowd_term $ wire_arg $ slo_arg)

let top_cmd =
  let run (crowd, transport) interval shown sample json =
    Runner.quiet := json;
    let arm =
      {
        Registry.plain with
        transport;
        metrics = true;
        series_ms = Some interval;
        keep_one_in = sample;
      }
    in
    let r = Runner.run ~arms:[ ("full", arm) ] Registry.top { crowd; shown } in
    if json then print_endline (Runner.json ~id:"top" ~smoke:false r)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Run the flash-crowd scenario with the full observability stack on \
          (metrics, windowed telemetry, sampled tracing) and print a \
          per-peer load table: transmit rates, latency quantiles, in-flight \
          peaks (the peer's fullest outgoing window; 0 without \
          $(b,--reliable)), retransmits and drops")
    Term.(
      const run $ crowd_term
      $ opt Arg.float [ "interval-ms" ] 100.0 "MS"
          "Telemetry window width (virtual milliseconds)"
      $ opt Arg.int [ "top" ] 12 "N"
          "Table rows: the N peers with the highest transmit rate"
      $ opt Arg.int [ "sample" ] 64 "K"
          "Trace head sampling: keep one correlation id in K (whole \
           cross-peer computations kept or dropped atomically); 0 \
           disables tracing entirely"
      $ switch [ "json" ] "Emit the run's tables as one JSON object")

let place_cmd =
  let run owners spares readers docs reads appends seed chaos wire slo =
    if owners < 1 || spares < 1 || readers < 1 || docs < 1 then begin
      prerr_endline "error: --owners, --spares, --readers and --docs must be >= 1";
      exit 1
    end;
    let t =
      {
        Registry.hot_small with
        owners; spares; readers; docs; reads; appends; seed; wire;
      }
    in
    alias ~slo Registry.place
      (if chaos then { t with label = "chaos"; faults = Some (Registry.place_chaos seed) }
       else t)
  in
  Cmd.v
    (Cmd.info "place"
       ~doc:
         "Run the hotspot scenario under static and adaptive placement on \
          the same seed, print latency tails, traffic and the migration \
          schedule, and cross-check the final \xCE\xA3 content fingerprints")
    Term.(
      const run
      $ opt Arg.int [ "owners" ] 4 "N" "Document-owning peers"
      $ opt Arg.int [ "spares" ] 2 "N" "Idle storage peers — natural migration targets"
      $ opt Arg.int [ "readers" ] 16 "N" "Reader peers"
      $ opt Arg.int [ "docs" ] 12 "N" "Documents; 10% are hot and draw 90% of reads"
      $ opt Arg.int [ "reads" ] 10 "R" "Reads per reader (closed loop)"
      $ opt Arg.int [ "appends" ] 4 "K" "Streaming appends per hot document"
      $ seed_arg 11
      $ switch [ "chaos" ]
          "Inject a chaos plan aimed at the hotspot: random drops, \
           duplicates and jitter quiet by 400 ms, plus a 150 ms partition \
           of the hottest document's owner — the same plan on both arms"
      $ wire_arg $ slo_arg)

let cache_cmd =
  let run sources subscribers queries rounds overlap seed slo =
    if sources < 1 || subscribers < 1 || queries < 1 || rounds < 1 then begin
      prerr_endline
        "error: --sources, --subscribers, --queries and --rounds must be >= 1";
      exit 1
    end;
    if overlap < 0.0 || overlap > 1.0 then begin
      prerr_endline "error: --overlap must be within 0..1";
      exit 1
    end;
    alias ~slo Registry.cache
      { Registry.cache.full with sources; subscribers; queries; rounds; overlap; seed }
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Run the overlapping-subscription workload with the semantic \
          result cache off and on under the same seed, print traffic, \
          completion and hit/invalidation counters, and cross-check that \
          the per-request result digests and the final \xCE\xA3 content are \
          byte-identical across the arms")
    Term.(
      const run
      $ opt Arg.int [ "sources" ] 3 "N" "Catalog-owning source peers"
      $ opt Arg.int [ "subscribers" ] 12 "N" "Subscriber peers"
      $ opt Arg.int [ "queries" ] 3 "Q"
          "Queries per subscriber slate (re-issued every round)"
      $ opt Arg.int [ "rounds" ] 3 "R" "Rounds"
      $ opt Arg.float [ "overlap" ] 0.6 "PCT"
          "Fraction of slate draws taken from the shared query pool (0..1) \
           — the cross-plan sharing the cache exploits"
      $ seed_arg 11 $ slo_arg)

let () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning);
  let info = Cmd.info "axmlctl" ~version:"1.0.0" ~doc:"Distributed AXML toolkit" in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            parse_cmd;
            query_cmd;
            rules_cmd;
            optimize_cmd;
            explain_cmd;
            demo_cmd;
            trace_cmd;
            chaos_cmd;
            scale_cmd;
            place_cmd;
            cache_cmd;
            top_cmd;
          ]))
