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

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

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
  let run_profile qtext files =
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
    if profile then run_profile qtext files
    else begin
      let gen = Xml.Node_id.Gen.create ~namespace:"cli" in
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

let strategy_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("greedy", "greedy");
             ("exhaustive", "exhaustive");
             ("best-first", "best-first");
             ("beam", "beam");
           ])
        "greedy"
    & info [ "strategy" ]
        ~docv:"greedy|exhaustive|best-first|beam"
        ~doc:"Search strategy")

let depth_arg =
  Arg.(
    value & opt int 3
    & info [ "depth" ] ~doc:"Exhaustive/beam depth, greedy steps")

let width_arg =
  Arg.(value & opt int 4 & info [ "width" ] ~doc:"Beam width")

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

let parse_strategy ~depth ~width ~expansions = function
  | "exhaustive" -> Algebra.Optimizer.Exhaustive { depth }
  | "best-first" -> Algebra.Optimizer.Best_first { max_expansions = expansions }
  | "beam" -> Algebra.Optimizer.Beam { width; depth }
  | _ -> Algebra.Optimizer.Greedy { max_steps = depth }

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

let optimize_cmd =
  let run plan peers ctx strategy depth width expansions latency bandwidth
      doc_bytes =
    let e = load_plan plan in
    let env = mesh_env ~plan:e ~peers:(ctx :: peers) ~latency ~bandwidth ~doc_bytes in
    let strategy = parse_strategy ~depth ~width ~expansions strategy in
    let result =
      Algebra.Optimizer.optimize ~env ~ctx:(Net.Peer_id.of_string ctx) strategy e
    in
    Format.printf "%a@." Algebra.Optimizer.pp_result result;
    print_endline "; serialized best plan:";
    print_endline (Algebra.Expr_xml.to_xml_string result.plan)
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Optimize a serialized plan")
    Term.(
      const run $ plan_arg $ peers_arg $ ctx_arg $ strategy_arg $ depth_arg
      $ width_arg $ expansions_arg $ latency_arg $ bandwidth_arg $ doc_bytes_arg)

let explain_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the explain record as a JSON object")
  in
  let run plan peers ctx strategy depth width expansions latency bandwidth
      doc_bytes json =
    let e = load_plan plan in
    let env = mesh_env ~plan:e ~peers:(ctx :: peers) ~latency ~bandwidth ~doc_bytes in
    let strategy = parse_strategy ~depth ~width ~expansions strategy in
    let result =
      Algebra.Planner.plan ~env ~ctx:(Net.Peer_id.of_string ctx) strategy e
    in
    if json then print_endline (Algebra.Planner.explain_json result)
    else Format.printf "%a@." Algebra.Planner.pp_result result
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Run the unified planner (rewrite search + per-site query \
          optimization) and print its explain record")
    Term.(
      const run $ plan_arg $ peers_arg $ ctx_arg $ strategy_arg $ depth_arg
      $ width_arg $ expansions_arg $ latency_arg $ bandwidth_arg $ doc_bytes_arg
      $ json)

(* --- demo -------------------------------------------------------- *)

let demo_cmd =
  let items =
    Arg.(value & opt int 200 & info [ "items" ] ~doc:"Catalog items")
  in
  let selectivity =
    Arg.(value & opt float 0.05 & info [ "selectivity" ] ~doc:"Matching fraction")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the message trace of the optimized run")
  in
  let run items selectivity trace =
    let p1 = Net.Peer_id.of_string "p1" and p2 = Net.Peer_id.of_string "p2" in
    let topo =
      Net.Topology.full_mesh
        ~link:(Net.Link.make ~latency_ms:10.0 ~bandwidth_bytes_per_ms:100.0)
        [ p1; p2 ]
    in
    let build () =
      let sys = Runtime.System.create topo in
      let rng = Workload.Rng.create ~seed:2026 in
      let g = Runtime.System.gen_of sys p2 in
      Runtime.System.add_document sys p2 ~name:"cat"
        (Workload.Xml_gen.catalog ~gen:g ~rng ~items ~selectivity ());
      sys
    in
    let q = Workload.Xml_gen.selection_query () in
    let naive =
      Algebra.Expr.query_at q ~at:p1 ~args:[ Algebra.Expr.doc "cat" ~at:"p2" ]
    in
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
        if trace then
          Net.Stats.set_tracing (Net.Sim.stats (Runtime.System.sim sys2)) true;
        let out2 = Runtime.Exec.run_to_quiescence ~reset_stats:false sys2 ~ctx:p1 r.result in
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
            (fun e -> Format.printf "  %a@." Net.Stats.pp_trace_entry e)
            (Net.Stats.trace (Net.Sim.stats (Runtime.System.sim sys2)))
        end
    | _ -> prerr_endline "selection not pushable?"
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run the Example-1 (pushing selections) demo")
    Term.(const run $ items $ selectivity $ trace)

(* --- trace ------------------------------------------------------- *)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let trace_cmd =
  let items =
    Arg.(value & opt int 200 & info [ "items" ] ~doc:"Catalog items")
  in
  let selectivity =
    Arg.(value & opt float 0.05 & info [ "selectivity" ] ~doc:"Matching fraction")
  in
  let out =
    Arg.(
      value & opt string "trace.json"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Trace output file")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("chrome", `Chrome); ("jsonl", `Jsonl) ]) `Chrome
      & info [ "format" ] ~docv:"chrome|jsonl"
          ~doc:
            "Trace format: $(b,chrome) is the trace_event JSON loadable in \
             Perfetto / chrome://tracing, $(b,jsonl) is one event object per \
             line")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Also write the metrics registry as a JSON array")
  in
  let flush_ms =
    Arg.(
      value & opt float 0.0
      & info [ "flush-ms" ] ~docv:"MS"
          ~doc:
            "Coalescing window of the Reliable transport; a positive value \
             runs the traced plans over Reliable instead of Raw")
  in
  let ack_delay =
    Arg.(
      value & opt float 0.0
      & info [ "ack-delay" ] ~docv:"MS"
          ~doc:
            "Standalone-ack deferral of the Reliable transport; a positive \
             value runs the traced plans over Reliable instead of Raw")
  in
  let run items selectivity out format metrics_out flush_ms ack_delay =
    (* Example-1 (pushing selections), instrumented: the naive plan and
       the planner's plan run back to back under tracing + metrics, and
       every span of one run carries that run's correlation id. *)
    Obs.Trace.set_enabled true;
    Obs.Trace.clear ();
    Obs.Metrics.set_enabled Obs.Metrics.default true;
    Obs.Metrics.reset Obs.Metrics.default;
    let p1 = Net.Peer_id.of_string "p1" and p2 = Net.Peer_id.of_string "p2" in
    let topo =
      Net.Topology.full_mesh
        ~link:(Net.Link.make ~latency_ms:10.0 ~bandwidth_bytes_per_ms:100.0)
        [ p1; p2 ]
    in
    let build () =
      (* The window knobs imply the Reliable transport: batch frames
         and delayed acks only exist in the sequenced protocol. *)
      let sys =
        if flush_ms > 0.0 || ack_delay > 0.0 then
          Runtime.System.create ~transport:Runtime.System.Reliable ~flush_ms
            ~ack_delay_ms:ack_delay topo
        else Runtime.System.create topo
      in
      let rng = Workload.Rng.create ~seed:2026 in
      let g = Runtime.System.gen_of sys p2 in
      Runtime.System.add_document sys p2 ~name:"cat"
        (Workload.Xml_gen.catalog ~gen:g ~rng ~items ~selectivity ());
      sys
    in
    let q = Workload.Xml_gen.selection_query () in
    let naive =
      Algebra.Expr.query_at q ~at:p1 ~args:[ Algebra.Expr.doc "cat" ~at:"p2" ]
    in
    let out_naive = Runtime.Exec.run_to_quiescence (build ()) ~ctx:p1 naive in
    let _planned, out_planned = Runtime.Exec.run_optimized (build ()) ~ctx:p1 naive in
    Format.printf "naive:   %6d bytes  %5.1f ms  %d results@."
      out_naive.stats.bytes out_naive.elapsed_ms
      (List.length out_naive.results);
    Format.printf "planned: %6d bytes  %5.1f ms  %d results@."
      out_planned.stats.bytes out_planned.elapsed_ms
      (List.length out_planned.results);
    let events = Obs.Trace.events () in
    write_file out
      (match format with
      | `Chrome -> Obs.Exporter.chrome_trace events
      | `Jsonl -> Obs.Exporter.jsonl events);
    Format.printf "wrote %d trace events to %s@." (List.length events) out;
    Option.iter
      (fun path ->
        write_file path (Obs.Exporter.metrics_json Obs.Metrics.default);
        Format.printf "wrote metrics to %s@." path)
      metrics_out;
    Format.printf "@.%a@." Obs.Metrics.pp_table Obs.Metrics.default;
    (* Cross-checks: the metrics registry must agree byte-for-byte with
       the simulator's own accounting, and at least one correlation id
       must span several peers (a cross-peer causal chain). *)
    let metric_bytes =
      int_of_float (Obs.Metrics.total Obs.Metrics.default ~subsystem:"net" "bytes_sent")
    in
    let stats_bytes = out_naive.stats.bytes + out_planned.stats.bytes in
    Format.printf "bytes: metrics %d, stats %d — %s@." metric_bytes stats_bytes
      (if metric_bytes = stats_bytes then "agree" else "DISAGREE");
    let cross_peer_corr =
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun (e : Obs.Trace.event) ->
          if e.corr <> 0 then begin
            let peers =
              Option.value ~default:[] (Hashtbl.find_opt tbl e.corr)
            in
            if not (List.mem e.peer peers) then
              Hashtbl.replace tbl e.corr (e.peer :: peers)
          end)
        events;
      Hashtbl.fold
        (fun corr peers acc ->
          if List.length peers >= 2 then corr :: acc else acc)
        tbl []
    in
    (match cross_peer_corr with
    | [] ->
        prerr_endline "error: no correlation id spans more than one peer";
        exit 1
    | corrs ->
        Format.printf "%d correlation id(s) span >=2 peers@."
          (List.length corrs));
    if metric_bytes <> stats_bytes then exit 1
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run the traced Example-1 scenario (naive and planner-optimized) \
          and export the causal trace plus per-peer metrics")
    Term.(
      const run $ items $ selectivity $ out $ format $ metrics_out $ flush_ms
      $ ack_delay)

(* --- chaos ------------------------------------------------------- *)

(* Shared by chaos/scale: turn SLO breaches into a distinct exit code
   (3).  The breach test reads the runtime's own counters — unserved
   requests, abandoned reliable deliveries, budget exhaustion — so it
   holds with every observability layer off; the matching trace
   instants (cat "slo") are the sampled, inspectable view of the same
   moments. *)
let slo_arg =
  Arg.(
    value & flag
    & info [ "slo" ]
        ~doc:
          "Exit with code 3 when the run breached an SLO: unserved \
           requests, abandoned reliable deliveries, or event-budget \
           exhaustion (computed from runtime counters, independent of \
           telemetry)")

(* Shared by chaos and scale: the wire format is orthogonal to the
   transport, so every command that builds a system takes both. *)
let wire_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("xml", Runtime.System.Xml);
             ("binary", Runtime.System.Binary);
             ("binary-strict", Runtime.System.Binary_strict);
           ])
        Runtime.System.Xml
    & info [ "wire" ] ~docv:"FORMAT"
        ~doc:
          "Wire format for byte accounting: $(b,xml) (the textual \
           serialization model), $(b,binary) (compact frames, \
           DESIGN.md \xC2\xA716), or $(b,binary-strict) (binary plus a full \
           encode/decode round-trip of every transmission).  The \
           delivered results and the final \xCE\xA3 are wire-independent.")

let chaos_cmd =
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Fault plan seed") in
  let drop =
    Arg.(
      value & opt float 0.2
      & info [ "drop" ] ~docv:"P" ~doc:"Per-message drop probability")
  in
  let raw =
    Arg.(
      value & flag
      & info [ "raw" ]
          ~doc:
            "Use the Raw transport under the same faults (ablation; \
             divergence is expected and does not fail the command)")
  in
  let flush_ms =
    Arg.(
      value & opt float 0.0
      & info [ "flush-ms" ] ~docv:"MS"
          ~doc:
            "Coalescing window of the Reliable transport under test (0 \
             ships each message on send; ignored with $(b,--raw))")
  in
  let ack_delay =
    Arg.(
      value & opt float 0.0
      & info [ "ack-delay" ] ~docv:"MS"
          ~doc:
            "Standalone-ack deferral of the Reliable transport under test \
             (0 acks each message on arrival; ignored with $(b,--raw))")
  in
  let run seed drop raw flush_ms ack_delay wire slo =
    (* Three-peer reference Σ (the V-series shape): catalog at p2,
       orders at p3, a declarative service at p2, a collector inbox at
       p3 for the forwarded stream. *)
    let p1 = Net.Peer_id.of_string "p1"
    and p2 = Net.Peer_id.of_string "p2"
    and p3 = Net.Peer_id.of_string "p3" in
    let topo =
      Net.Topology.full_mesh
        ~link:(Net.Link.make ~latency_ms:10.0 ~bandwidth_bytes_per_ms:100.0)
        [ p1; p2; p3 ]
    in
    let catalog_xml =
      {|<catalog><item k="y"><name>alpha</name></item><item k="n"><name>beta</name></item><item k="y"><name>gamma</name></item></catalog>|}
    in
    let orders_xml =
      {|<orders><order item="alpha"/><order item="gamma"/><order item="zeta"/></orders>|}
    in
    (* The reference runs stay at the window's 0/0 defaults and the XML
       wire: the check is that a faulty run with raised knobs (or the
       binary wire) still reproduces the plain fault-free answer, not a
       twin of itself. *)
    let build ?(flush_ms = 0.0) ?(ack_delay_ms = 0.0)
        ?(wire = Runtime.System.Xml) transport =
      let sys =
        Runtime.System.create ~transport ~wire ~flush_ms ~ack_delay_ms topo
      in
      Runtime.System.load_document sys p2 ~name:"cat" ~xml:catalog_xml;
      Runtime.System.load_document sys p3 ~name:"orders" ~xml:orders_xml;
      Runtime.System.add_service sys p2
        (Doc.Service.declarative ~name:"find_wanted"
           (Query.Parser.parse_exn
              {|query(1) for $x in $0//item where attr($x, "k") = "y" return <found>{$x}</found>|}));
      let inbox_gen = Xml.Node_id.Gen.create ~namespace:"chaos-inbox" in
      let inbox = Xml.Tree.element_of_string ~gen:inbox_gen "inbox" [] in
      let inbox_id = Option.get (Xml.Tree.id inbox) in
      Runtime.System.add_document sys p3 ~name:"collector" inbox;
      (sys, inbox_id)
    in
    let plans inbox_id =
      [
        ( "two-site-join",
          Algebra.Expr.query_at
            (Query.Parser.parse_exn
               {|query(2) for $o in $0//order, $i in $1//item, $n in $i/name where attr($o, "item") = text($n) return <match>{$n}</match>|})
            ~at:p1
            ~args:
              [
                Algebra.Expr.doc "orders" ~at:"p3";
                Algebra.Expr.doc "cat" ~at:"p2";
              ] );
        ( "sc-with-forward",
          Algebra.Expr.sc
            (Doc.Sc.make
               ~forward:[ Doc.Names.Node_ref.make ~node:inbox_id ~peer:p3 ]
               ~provider:(Doc.Names.At p2) ~service:"find_wanted"
               [ [ Xml.Parser.parse_exn ~gen:(Xml.Node_id.Gen.create ~namespace:"arg") catalog_xml ] ])
            ~at:p1 );
        ("plain-transfer", Algebra.Expr.send_to_peer p1 (Algebra.Expr.doc "cat" ~at:"p2"));
      ]
    in
    let fault =
      Net.Fault.make
        ~profile:
          { Net.Fault.drop; duplicate = drop /. 4.0; jitter_ms = 2.0 }
        ~quiet_after_ms:600.0 ~seed ()
    in
    let transport = if raw then Runtime.System.Raw else Runtime.System.Reliable in
    Format.printf
      "fault plan: seed=%d drop=%.2f duplicate=%.2f transport=%s wire=%s%s@.@."
      seed drop (drop /. 4.0)
      (if raw then "raw" else "reliable")
      (match wire with
      | Runtime.System.Xml -> "xml"
      | Runtime.System.Binary -> "binary"
      | Runtime.System.Binary_strict -> "binary-strict")
      (if (not raw) && (flush_ms > 0.0 || ack_delay > 0.0) then
         Printf.sprintf " (batched: flush %g ms, ack delay %g ms)" flush_ms
           ack_delay
       else "");
    let divergent = ref 0 in
    let abandoned_total = ref 0 and unfinished = ref 0 in
    Format.printf "  %-16s %-8s %6s %6s %6s %6s %9s %9s@." "plan" "answer"
      "drops" "retx" "dups" "aband" "ref ms" "fault ms";
    List.iter
      (fun (name, plan) ->
        let ref_sys, _ = build Runtime.System.Reliable in
        let ref_out = Runtime.Exec.run_to_quiescence ref_sys ~ctx:p1 plan in
        let ref_fp = Runtime.System.fingerprint ref_sys in
        let sys, _ = build ~flush_ms ~ack_delay_ms:ack_delay ~wire transport in
        Runtime.System.inject_faults sys fault;
        let out = Runtime.Exec.run_to_quiescence sys ~ctx:p1 plan in
        let rc = Runtime.System.reliability_counters sys in
        abandoned_total := !abandoned_total + rc.Runtime.System.abandoned;
        if not out.finished then incr unfinished;
        let ok =
          out.finished
          && Xml.Canonical.equal_forest ref_out.results out.results
          && String.equal ref_fp (Runtime.System.fingerprint sys)
        in
        if not ok then incr divergent;
        Format.printf "  %-16s %-8s %6d %6d %6d %6d %9.1f %9.1f@." name
          (if ok then "same" else "DIFFERS")
          out.stats.drops rc.Runtime.System.retransmits
          rc.Runtime.System.dup_suppressed rc.Runtime.System.abandoned
          ref_out.elapsed_ms out.elapsed_ms)
      (let _, inbox_id = build transport in
       plans inbox_id);
    if raw then
      Format.printf
        "@.%d/3 plan(s) diverged under the raw transport (ablation)@."
        !divergent
    else if !divergent > 0 then begin
      Format.eprintf
        "@.error: %d plan(s) diverged under the reliable transport@."
        !divergent;
      exit 1
    end
    else Format.printf "@.all plans match the fault-free runs@.";
    if slo then begin
      if !abandoned_total > 0 || !unfinished > 0 then begin
        Format.eprintf
          "SLO breach: %d abandoned delivery(ies), %d unfinished plan(s)@."
          !abandoned_total !unfinished;
        exit 3
      end
      else Format.printf "SLO: no breaches@."
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the reference plans under a seeded fault plan and check the \
          reliable transport reproduces the fault-free answers")
    Term.(
      const run $ seed $ drop $ raw $ flush_ms $ ack_delay $ wire_arg $ slo_arg)

(* --- scale ------------------------------------------------------- *)

let scale_cmd =
  let peers =
    Arg.(
      value & opt int 100
      & info [ "peers" ] ~docv:"N"
          ~doc:
            "Total peer count: one publisher, $(b,--subscribers) \
             subscribers, and the rest mirrors")
  in
  let subscribers =
    Arg.(
      value & opt int 80
      & info [ "subscribers" ] ~docv:"M" ~doc:"Subscriber count")
  in
  let requests =
    Arg.(
      value & opt int 4
      & info [ "requests" ] ~docv:"R" ~doc:"Requests per subscriber")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Scenario seed") in
  let reliable =
    Arg.(
      value & flag
      & info [ "reliable" ]
          ~doc:"Use the Reliable transport (default: Raw)")
  in
  let run peers subscribers requests seed reliable wire slo =
    let mirrors = peers - subscribers - 1 in
    if mirrors < 1 then begin
      prerr_endline
        "error: --peers must exceed --subscribers by at least 2 (one \
         publisher, one mirror)";
      exit 1
    end;
    let transport =
      if reliable then Runtime.System.Reliable else Runtime.System.Raw
    in
    let fc =
      Workload.Scenarios.flash_crowd ~mirrors ~subscribers
        ~requests_per_subscriber:requests ~transport ~wire ~seed ()
    in
    let sys = fc.Workload.Scenarios.fc_system in
    let budget = (8 * fc.Workload.Scenarios.fc_requests) + (40 * peers) + 10_000 in
    (* Simulation-scale nursery: keeps the ~[subscribers] concurrent
       requests' in-flight state from being promoted wholesale (see
       bench E20). *)
    Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
    let w0 = Gc.minor_words () in
    let wall0 = Sys.time () in
    let outcome, events = Runtime.System.run ~max_events:budget sys in
    let wall = Sys.time () -. wall0 in
    let words = Gc.minor_words () -. w0 in
    (match outcome with
    | `Quiescent -> ()
    | `Budget_exhausted ->
        Format.eprintf "warning: event budget (%d) exhausted@." budget);
    let stats = Runtime.System.stats sys in
    let completed = !(fc.Workload.Scenarios.fc_completed) in
    Format.printf
      "peers %d (1 publisher, %d mirrors, %d subscribers), seed %d, %s \
       transport@."
      peers mirrors subscribers seed
      (if reliable then "reliable" else "raw");
    (match wire with
    | Runtime.System.Xml -> ()
    | Runtime.System.Binary -> Format.printf "wire      binary@."
    | Runtime.System.Binary_strict -> Format.printf "wire      binary-strict@.");
    Format.printf "requests  %d issued, %d completed, %d unserved@."
      fc.Workload.Scenarios.fc_requests completed
      !(fc.Workload.Scenarios.fc_unserved);
    Format.printf "events    %d (%.0f events/sec, %.3f s wall, %.1f words/event)@."
      events
      (float_of_int events /. Float.max 1e-9 wall)
      wall
      (words /. float_of_int (max 1 events));
    Format.printf "completion_ms %.0f@." stats.Net.Stats.completion_ms;
    (* Per-tier byte totals: aggregate the per-link matrix by the tier
       of each endpoint. *)
    let tier_of =
      let tiers = Hashtbl.create (2 * peers) in
      Hashtbl.replace tiers
        (Net.Peer_id.index fc.Workload.Scenarios.fc_publisher)
        "publisher";
      List.iter
        (fun m -> Hashtbl.replace tiers (Net.Peer_id.index m) "mirror")
        fc.Workload.Scenarios.fc_mirrors;
      List.iter
        (fun s -> Hashtbl.replace tiers (Net.Peer_id.index s) "subscriber")
        fc.Workload.Scenarios.fc_subscribers;
      fun p ->
        Option.value ~default:"?"
          (Hashtbl.find_opt tiers (Net.Peer_id.index p))
    in
    let totals = Hashtbl.create 8 in
    List.iter
      (fun ((src, dst), (msgs, bytes)) ->
        let key = (tier_of src, tier_of dst) in
        let m0, b0 =
          Option.value ~default:(0, 0) (Hashtbl.find_opt totals key)
        in
        Hashtbl.replace totals key (m0 + msgs, b0 + bytes))
      stats.Net.Stats.per_link;
    Format.printf "@.%-24s %10s %14s@." "tier" "messages" "bytes";
    List.iter
      (fun ((src, dst), (msgs, bytes)) ->
        Format.printf "%-24s %10d %14d@."
          (src ^ " -> " ^ dst)
          msgs bytes)
      (List.sort compare
         (Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals []));
    (if slo then begin
       let rc = Runtime.System.reliability_counters sys in
       let unserved = !(fc.Workload.Scenarios.fc_unserved) in
       let exhausted = outcome = `Budget_exhausted in
       if unserved > 0 || rc.Runtime.System.abandoned > 0 || exhausted then begin
         Format.eprintf
           "SLO breach: %d unserved request(s), %d abandoned \
            delivery(ies)%s@."
           unserved rc.Runtime.System.abandoned
           (if exhausted then ", event budget exhausted" else "");
         exit 3
       end
       else Format.printf "SLO: no breaches@."
     end);
    if completed < fc.Workload.Scenarios.fc_requests then begin
      Format.eprintf "error: %d request(s) never completed@."
        (fc.Workload.Scenarios.fc_requests - completed);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Run the web-scale flash-crowd scenario (one publisher, a mirror \
          pool behind a generic fetch class, a subscriber crowd) and print \
          throughput plus per-tier traffic totals")
    Term.(
      const run $ peers $ subscribers $ requests $ seed $ reliable $ wire_arg
      $ slo_arg)

(* --- place ------------------------------------------------------- *)

(* The placement analogue of scale: run the hotspot scenario twice on
   the identical shape and seed — static placement (seeded Random
   reader picks, no controller) and adaptive (load-steered picks plus
   the DESIGN.md §17 migration controller) — and print read-latency
   tails, traffic totals and the adaptive arm's migration schedule.
   The two arms must agree on the final Σ content fingerprint: the
   controller moves replicas, never answers. *)

let place_cmd =
  let owners =
    Arg.(
      value & opt int 4
      & info [ "owners" ] ~docv:"N" ~doc:"Document-owning peers")
  in
  let spares =
    Arg.(
      value & opt int 2
      & info [ "spares" ] ~docv:"N"
          ~doc:"Idle storage peers — natural migration targets")
  in
  let readers =
    Arg.(value & opt int 16 & info [ "readers" ] ~docv:"N" ~doc:"Reader peers")
  in
  let docs =
    Arg.(
      value & opt int 12
      & info [ "docs" ] ~docv:"N"
          ~doc:"Documents; 10% are hot and draw 90% of reads")
  in
  let reads =
    Arg.(
      value & opt int 10
      & info [ "reads" ] ~docv:"R" ~doc:"Reads per reader (closed loop)")
  in
  let appends =
    Arg.(
      value & opt int 4
      & info [ "appends" ] ~docv:"K"
          ~doc:"Streaming appends per hot document")
  in
  let seed = Arg.(value & opt int 11 & info [ "seed" ] ~doc:"Scenario seed") in
  let chaos =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Inject a chaos plan aimed at the hotspot: random drops, \
             duplicates and jitter quiet by 400 ms, plus a 150 ms \
             partition of the hottest document's owner — the same plan \
             on both arms")
  in
  let run owners spares readers docs reads appends seed chaos wire slo =
    if owners < 1 || spares < 1 || readers < 1 || docs < 1 then begin
      prerr_endline "error: --owners, --spares, --readers and --docs must be >= 1";
      exit 1
    end;
    let pct l q =
      match List.sort compare l with
      | [] -> Float.nan
      | sorted ->
          let a = Array.of_list sorted in
          let n = Array.length a in
          let i = int_of_float (ceil (q *. float_of_int n)) - 1 in
          a.(max 0 (min (n - 1) i))
    in
    let run_arm adaptive =
      let reg = Obs.Timeseries.default in
      if adaptive then begin
        Obs.Timeseries.set_window reg 10.0;
        Obs.Timeseries.set_enabled reg true
      end;
      Fun.protect
        ~finally:(fun () ->
          Obs.Timeseries.set_enabled reg false;
          Obs.Timeseries.set_window reg 100.0)
      @@ fun () ->
      let hs =
        Workload.Scenarios.hotspot ~owners ~spares ~readers ~docs
          ~hot_fraction:0.1 ~hot_share:0.9 ~reads_per_reader:reads ~appends
          ~append_every_ms:10.0 ~payload_bytes:1024 ~think_ms:2.0
          ~arrival_window_ms:100.0 ~steered:adaptive ~cpu_ms_per_kb:3.0 ~wire
          ~seed ()
      in
      let sys = hs.Workload.Scenarios.hs_system in
      let storage =
        hs.Workload.Scenarios.hs_owners @ hs.Workload.Scenarios.hs_spares
      in
      let ctl =
        if adaptive then
          Some
            (Runtime.Placement.enable
               ~cfg:
                 {
                   Runtime.Placement.default_config with
                   tick_ms = 20.0;
                   windows = 3;
                   hot_rate = 100.0;
                   migrations_per_tick = 2;
                   seed = seed + 99;
                   eligible =
                     Some (fun p -> List.exists (Net.Peer_id.equal p) storage);
                 }
               sys)
        else None
      in
      if chaos then begin
        (* Aim the partition at the hottest document's owner: the worst
           place a fault can land for static placement, and exactly the
           load the controller is supposed to route around. *)
        let hot_owner =
          match hs.Workload.Scenarios.hs_hot with
          | h :: _ -> List.assoc h hs.Workload.Scenarios.hs_docs
          | [] -> List.hd hs.Workload.Scenarios.hs_owners
        in
        Runtime.System.inject_faults sys
          (Net.Fault.make
             ~profile:
               { Net.Fault.drop = 0.12; duplicate = 0.04; jitter_ms = 2.0 }
             ~events:
               [
                 Net.Fault.Partition
                   {
                     island = [ hot_owner ];
                     window = Net.Fault.window ~from_ms:100.0 ~until_ms:250.0;
                   };
               ]
             ~quiet_after_ms:400.0 ~seed:(seed + 23) ())
      end;
      let outcome, events = Runtime.System.run sys in
      let stats = Runtime.System.stats sys in
      let rc = Runtime.System.reliability_counters sys in
      (hs, ctl, outcome, events, stats, rc,
       Runtime.System.content_fingerprint sys)
    in
    let hs_s, _, out_s, events_s, stats_s, rc_s, fp_s = run_arm false in
    let hs_a, ctl_a, out_a, events_a, stats_a, rc_a, fp_a = run_arm true in
    Format.printf
      "hotspot: %d owners, %d spares, %d readers, %d docs (10%% hot / 90%% \
       of reads), %d reads/reader, seed %d%s@.@."
      owners spares readers docs reads seed
      (if chaos then ", chaos plan on" else "");
    let p95_of (hs : Workload.Scenarios.hotspot) =
      pct !(hs.Workload.Scenarios.hs_latencies) 0.95
    in
    let row arm (hs : Workload.Scenarios.hotspot) out events
        (stats : Net.Stats.snapshot) migr =
      let lats = !(hs.Workload.Scenarios.hs_latencies) in
      Format.printf
        "%-9s served %d/%d (unserved %d), p50 %.1f p95 %.1f p99 %.1f ms, \
         %d msgs, %d bytes, %d migration(s), %s@."
        arm
        !(hs.Workload.Scenarios.hs_completed)
        hs.Workload.Scenarios.hs_requests
        !(hs.Workload.Scenarios.hs_unserved)
        (pct lats 0.50) (pct lats 0.95) (pct lats 0.99)
        stats.Net.Stats.messages stats.Net.Stats.bytes migr
        (match out with
        | `Quiescent -> Printf.sprintf "quiescent in %d events" events
        | `Budget_exhausted -> "BUDGET EXHAUSTED")
    in
    row "static" hs_s out_s events_s stats_s 0;
    let migr =
      match ctl_a with
      | Some c -> (Runtime.Placement.stats c).Runtime.Placement.s_committed
      | None -> 0
    in
    row "adaptive" hs_a out_a events_a stats_a migr;
    (match ctl_a with
    | Some c ->
        Format.printf "@.migration schedule:@.%a@." Runtime.Placement.pp_schedule c
    | None -> ());
    let sigma_agree = String.equal fp_s fp_a in
    Format.printf "\xCE\xA3 content %s across arms (%s)@."
      (if sigma_agree then "agrees" else "DIFFERS")
      (String.sub fp_a 0 (min 12 (String.length fp_a)));
    (* The SLO judges the controller arm: the static baseline is
       allowed to fail under chaos — that failure is the point. *)
    ignore rc_s;
    let unserved = !(hs_a.Workload.Scenarios.hs_unserved) in
    let abandoned = rc_a.Runtime.System.abandoned in
    let tail_regressed =
      let s = p95_of hs_s and a = p95_of hs_a in
      Float.is_nan s || Float.is_nan a || a > 1.1 *. s
    in
    (if slo then
       if (not sigma_agree) || unserved > 0 || abandoned > 0 || tail_regressed
       then begin
         Format.eprintf
           "SLO breach: %s%d unserved read(s), %d abandoned delivery(ies)%s@."
           (if sigma_agree then "" else "\xCE\xA3 mismatch, ")
           unserved abandoned
           (if tail_regressed then
              ", adaptive p95 above 1.1x the static tail"
            else "");
         exit 3
       end
       else Format.printf "SLO: no breaches@.");
    if
      (not sigma_agree)
      || !(hs_a.Workload.Scenarios.hs_completed)
         < hs_a.Workload.Scenarios.hs_requests
    then begin
      Format.eprintf
        "error: arms disagree on \xCE\xA3 or adaptive reads never completed@.";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "place"
       ~doc:
         "Run the hotspot scenario under static and adaptive placement on \
          the same seed, print latency tails, traffic and the migration \
          schedule, and cross-check the final \xCE\xA3 content fingerprints")
    Term.(
      const run $ owners $ spares $ readers $ docs $ reads $ appends $ seed
      $ chaos $ wire_arg $ slo_arg)

(* --- cache ------------------------------------------------------- *)

let cache_cmd =
  let sources =
    Arg.(
      value & opt int 3
      & info [ "sources" ] ~docv:"N" ~doc:"Catalog-owning source peers")
  in
  let subscribers =
    Arg.(
      value & opt int 12
      & info [ "subscribers" ] ~docv:"N" ~doc:"Subscriber peers")
  in
  let queries =
    Arg.(
      value & opt int 3
      & info [ "queries" ] ~docv:"Q"
          ~doc:"Queries per subscriber slate (re-issued every round)")
  in
  let rounds =
    Arg.(value & opt int 3 & info [ "rounds" ] ~docv:"R" ~doc:"Rounds")
  in
  let overlap =
    Arg.(
      value & opt float 0.6
      & info [ "overlap" ] ~docv:"PCT"
          ~doc:
            "Fraction of slate draws taken from the shared query pool \
             (0..1) — the cross-plan sharing the cache exploits")
  in
  let seed = Arg.(value & opt int 11 & info [ "seed" ] ~doc:"Scenario seed") in
  let off =
    Arg.(
      value & flag
      & info [ "off" ]
          ~doc:"Run only the cache-off baseline (no comparison arm)")
  in
  let run sources subscribers queries rounds overlap seed off slo =
    if sources < 1 || subscribers < 1 || queries < 1 || rounds < 1 then begin
      prerr_endline
        "error: --sources, --subscribers, --queries and --rounds must be >= 1";
      exit 1
    end;
    if overlap < 0.0 || overlap > 1.0 then begin
      prerr_endline "error: --overlap must be within 0..1";
      exit 1
    end;
    let pct l q =
      match List.sort compare l with
      | [] -> Float.nan
      | sorted ->
          let a = Array.of_list sorted in
          let n = Array.length a in
          let i = int_of_float (ceil (q *. float_of_int n)) - 1 in
          a.(max 0 (min (n - 1) i))
    in
    let run_arm cache =
      let ov =
        Workload.Scenarios.overlap ~sources ~subscribers
          ~queries_per_subscriber:queries ~rounds ~overlap_pct:overlap ~cache
          ~seed ()
      in
      let sys = ov.Workload.Scenarios.ov_system in
      let outcome, events = Runtime.System.run sys in
      ( ov, outcome, events,
        Runtime.System.stats sys,
        Runtime.System.qcache_stats sys,
        List.sort String.compare !(ov.Workload.Scenarios.ov_digests),
        Runtime.System.content_fingerprint sys )
    in
    Format.printf
      "overlap: %d sources, %d subscribers x %d queries x %d rounds, %.0f%% \
       pool overlap, seed %d@.@."
      sources subscribers queries rounds (overlap *. 100.0) seed;
    let row arm (ov : Workload.Scenarios.overlap) out events
        (stats : Net.Stats.snapshot) (qs : Query.Qcache.stats) =
      let lats = !(ov.Workload.Scenarios.ov_latencies) in
      Format.printf
        "%-9s completed %d/%d, p50 %.1f p95 %.1f ms, %d msgs, %d bytes, \
         done %.1f ms, %d hit(s) / %d miss(es), %d invalidation(s), %s@."
        arm
        !(ov.Workload.Scenarios.ov_completed)
        ov.Workload.Scenarios.ov_requests (pct lats 0.50) (pct lats 0.95)
        stats.Net.Stats.messages stats.Net.Stats.bytes
        stats.Net.Stats.completion_ms qs.Query.Qcache.hits
        qs.Query.Qcache.misses
        (qs.Query.Qcache.invalidations + qs.Query.Qcache.stale_drops)
        (match out with
        | `Quiescent -> Printf.sprintf "quiescent in %d events" events
        | `Budget_exhausted -> "BUDGET EXHAUSTED")
    in
    let ov_off, out_off, events_off, stats_off, qs_off, digests_off, fp_off =
      run_arm false
    in
    row "cache-off" ov_off out_off events_off stats_off qs_off;
    let complete (ov : Workload.Scenarios.overlap) out =
      out = `Quiescent
      && !(ov.Workload.Scenarios.ov_completed)
         = ov.Workload.Scenarios.ov_requests
    in
    if off then begin
      if not (complete ov_off out_off) then begin
        Format.eprintf "error: the baseline never completed@.";
        exit 1
      end
    end
    else begin
      let ov_on, out_on, events_on, stats_on, qs_on, digests_on, fp_on =
        run_arm true
      in
      row "cache-on" ov_on out_on events_on stats_on qs_on;
      let digests_agree = digests_off = digests_on in
      let sigma_agree = String.equal fp_off fp_on in
      Format.printf
        "@.per-request digests %s across arms; \xCE\xA3 content %s (%s)@."
        (if digests_agree then "byte-identical" else "DIFFER")
        (if sigma_agree then "agrees" else "DIFFERS")
        (String.sub fp_on 0 (min 12 (String.length fp_on)));
      if stats_off.Net.Stats.bytes > 0 then
        Format.printf
          "cache-on: %.2fx bytes, %.2fx completion, hit rate %.0f%%@."
          (float_of_int stats_on.Net.Stats.bytes
          /. float_of_int stats_off.Net.Stats.bytes)
          (stats_on.Net.Stats.completion_ms
          /. Float.max 1.0 stats_off.Net.Stats.completion_ms)
          (100.0
          *. float_of_int qs_on.Query.Qcache.hits
          /. Float.max 1.0
               (float_of_int (qs_on.Query.Qcache.hits + qs_on.Query.Qcache.misses))
          );
      (* The SLO judges the cached arm: results must be byte-identical
         to the baseline and the cache must actually serve — a cache
         that is never hit is misconfigured, not conservative. *)
      (if slo then
         if
           (not digests_agree) || (not sigma_agree)
           || qs_on.Query.Qcache.hits = 0
         then begin
           Format.eprintf "SLO breach: %s%s%s@."
             (if digests_agree then "" else "result digests differ, ")
             (if sigma_agree then "" else "\xCE\xA3 mismatch, ")
             (if qs_on.Query.Qcache.hits = 0 then "zero cache hits" else "")
           |> ignore;
           exit 3
         end
         else Format.printf "SLO: no breaches@.");
      if
        (not digests_agree) || (not sigma_agree)
        || not (complete ov_off out_off && complete ov_on out_on)
      then begin
        Format.eprintf
          "error: arms disagree on results/\xCE\xA3 or never completed@.";
        exit 1
      end
    end
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
      const run $ sources $ subscribers $ queries $ rounds $ overlap $ seed
      $ off $ slo_arg)

(* --- top --------------------------------------------------------- *)

let top_cmd =
  let peers =
    Arg.(
      value & opt int 100
      & info [ "peers" ] ~docv:"N" ~doc:"Total peer count (as in scale)")
  in
  let subscribers =
    Arg.(
      value & opt int 80
      & info [ "subscribers" ] ~docv:"M" ~doc:"Subscriber count")
  in
  let requests =
    Arg.(
      value & opt int 4
      & info [ "requests" ] ~docv:"R" ~doc:"Requests per subscriber")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Scenario seed") in
  let reliable =
    Arg.(
      value & flag
      & info [ "reliable" ] ~doc:"Use the Reliable transport (default: Raw)")
  in
  let interval =
    Arg.(
      value & opt float 100.0
      & info [ "interval-ms" ] ~docv:"MS"
          ~doc:"Telemetry window width (virtual milliseconds)")
  in
  let rows =
    Arg.(
      value & opt int 12
      & info [ "top" ] ~docv:"N"
          ~doc:"Table rows: the N peers with the highest transmit rate")
  in
  let sample =
    Arg.(
      value & opt int 64
      & info [ "sample" ] ~docv:"K"
          ~doc:
            "Trace head sampling: keep one correlation id in K (whole \
             cross-peer computations kept or dropped atomically); 0 \
             disables tracing entirely")
  in
  let json =
    Arg.(
      value & flag & info [ "json" ] ~doc:"Emit the table as a JSON object")
  in
  let run peers subscribers requests seed reliable interval rows sample json =
    let mirrors = peers - subscribers - 1 in
    if mirrors < 1 then begin
      prerr_endline
        "error: --peers must exceed --subscribers by at least 2 (one \
         publisher, one mirror)";
      exit 1
    end;
    (* Full observability stack: cumulative metrics, windowed series at
       the requested interval, and sampled tracing (viable at 10^3
       peers precisely because sampled-out events allocate nothing). *)
    let reg = Obs.Timeseries.default in
    Obs.Metrics.set_enabled Obs.Metrics.default true;
    Obs.Metrics.reset Obs.Metrics.default;
    Obs.Timeseries.set_window reg interval;
    Obs.Timeseries.set_enabled reg true;
    Obs.Timeseries.reset reg;
    if sample > 0 then begin
      Obs.Trace.set_enabled true;
      Obs.Trace.clear ();
      Obs.Trace.set_sampling ~seed ~keep_one_in:sample ()
    end
    else Obs.Trace.set_enabled false;
    let transport =
      if reliable then Runtime.System.Reliable else Runtime.System.Raw
    in
    let fc =
      Workload.Scenarios.flash_crowd ~mirrors ~subscribers
        ~requests_per_subscriber:requests ~transport ~seed ()
    in
    let sys = fc.Workload.Scenarios.fc_system in
    let budget = (8 * fc.Workload.Scenarios.fc_requests) + (40 * peers) + 10_000 in
    Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
    let outcome, events = Runtime.System.run ~max_events:budget sys in
    let stats = Runtime.System.stats sys in
    let rc = Runtime.System.reliability_counters sys in
    (* Read the rings back.  [now] is the virtual end of the run; rates
       cover the complete windows the ring still holds, quantiles merge
       every live window's histogram. *)
    let now = Obs.Timeseries.now reg in
    let windows = Obs.Timeseries.ring_size reg in
    let cur = Obs.Timeseries.epoch_of reg now in
    let sum_rate key =
      (* Bytes/sec analogue of [Timeseries.rate]: total of w_sum over
         the complete windows preceding the current one. *)
      let total = ref 0.0 in
      for e = max 0 (cur - windows + 1) to cur - 1 do
        match Obs.Timeseries.read_window reg key ~epoch:e with
        | Some a -> total := !total +. a.Obs.Timeseries.w_sum
        | None -> ()
      done;
      !total /. (float_of_int (windows - 1) *. interval /. 1000.0)
    in
    let peak key =
      let best = ref 0.0 in
      for e = max 0 (cur - windows + 1) to cur do
        match Obs.Timeseries.read_window reg key ~epoch:e with
        | Some a when a.Obs.Timeseries.w_count > 0 ->
            if a.Obs.Timeseries.w_max > !best then best := a.Obs.Timeseries.w_max
        | _ -> ()
      done;
      !best
    in
    let all_keys = Obs.Timeseries.keys reg in
    let all_peers =
      (fc.Workload.Scenarios.fc_publisher, "publisher")
      :: List.map (fun m -> (m, "mirror")) fc.Workload.Scenarios.fc_mirrors
      @ List.map (fun s -> (s, "subscriber")) fc.Workload.Scenarios.fc_subscribers
    in
    let row (p, tier) =
      let name = Net.Peer_id.to_string p in
      let k suffix = "peer/" ^ name ^ "/" ^ suffix in
      let tx = Obs.Timeseries.rate reg (k "tx") ~now ~windows:(windows - 1) in
      let kb = sum_rate (k "tx") /. 1024.0 in
      let p95 =
        Obs.Timeseries.quantile reg (k "latency_ms") ~now ~windows ~q:0.95
      in
      let p99 =
        Obs.Timeseries.quantile reg (k "latency_ms") ~now ~windows ~q:0.99
      in
      let inflight =
        (* Peak of the per-link in-flight gauges departing this peer
           (recorded by the Reliable transport; 0 under Raw). *)
        let prefix = "net/link/" ^ name ^ "->" in
        List.fold_left
          (fun acc key ->
            if
              String.starts_with ~prefix key
              && String.ends_with ~suffix:"/inflight" key
            then Float.max acc (peak key)
            else acc)
          0.0 all_keys
      in
      let counter n =
        Obs.Metrics.counter_value Obs.Metrics.default ~peer:name
          ~subsystem:"net" n
      in
      (name, tier, tx, kb, p95, p99, inflight, counter "retransmits",
       counter "drops")
    in
    let ranked =
      List.map row all_peers
      |> List.sort (fun (n1, _, tx1, _, _, _, _, _, _) (n2, _, tx2, _, _, _, _, _, _) ->
             match compare tx2 tx1 with 0 -> compare n1 n2 | c -> c)
    in
    let shown = List.filteri (fun i _ -> i < rows) ranked in
    let trace_events = if sample > 0 then Obs.Trace.events () else [] in
    let sampled_span =
      match trace_events with
      | [] -> 0.0
      | e0 :: rest ->
          let lo, hi =
            List.fold_left
              (fun (lo, hi) (e : Obs.Trace.event) ->
                (Float.min lo e.ts_ms, Float.max hi (e.ts_ms +. e.dur_ms)))
              (e0.Obs.Trace.ts_ms, e0.Obs.Trace.ts_ms +. e0.Obs.Trace.dur_ms)
              rest
          in
          hi -. lo
    in
    if json then begin
      let b = Buffer.create 4096 in
      let esc s = Obs.Exporter.json_escape s in
      Buffer.add_string b
        (Printf.sprintf
           "{\"schema_version\":2,\"peers\":%d,\"mirrors\":%d,\"subscribers\":%d,\
            \"seed\":%d,\"transport\":\"%s\",\"window_ms\":%g,\"windows\":%d,"
           peers mirrors subscribers seed
           (if reliable then "reliable" else "raw")
           interval windows);
      Buffer.add_string b
        (Printf.sprintf
           "\"requests\":{\"issued\":%d,\"completed\":%d,\"unserved\":%d},"
           fc.Workload.Scenarios.fc_requests
           !(fc.Workload.Scenarios.fc_completed)
           !(fc.Workload.Scenarios.fc_unserved));
      Buffer.add_string b
        (Printf.sprintf
           "\"events\":%d,\"completion_ms\":%.3f,\"budget_exhausted\":%b,\
            \"retransmits\":%d,\"abandoned\":%d,"
           events stats.Net.Stats.completion_ms
           (outcome = `Budget_exhausted)
           rc.Runtime.System.retransmits rc.Runtime.System.abandoned);
      Buffer.add_string b
        (Printf.sprintf
           "\"trace\":{\"keep_one_in\":%d,\"sampled_events\":%d,\
            \"sampled_span_ms\":%.3f},\"rows\":["
           sample (List.length trace_events) sampled_span);
      List.iteri
        (fun i (name, tier, tx, kb, p95, p99, infl, retx, drops) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf
               "{\"peer\":\"%s\",\"tier\":\"%s\",\"tx_per_s\":%.3f,\
                \"kb_per_s\":%.3f,\"p95_ms\":%.3f,\"p99_ms\":%.3f,\
                \"inflight\":%.0f,\"retransmits\":%d,\"drops\":%d}"
               (esc name) (esc tier) tx kb p95 p99 infl retx drops))
        shown;
      Buffer.add_string b "]}";
      print_endline (Buffer.contents b)
    end
    else begin
      Format.printf
        "peers %d (1 publisher, %d mirrors, %d subscribers), seed %d, %s \
         transport, %g ms windows@."
        peers mirrors subscribers seed
        (if reliable then "reliable" else "raw")
        interval;
      Format.printf "requests  %d issued, %d completed, %d unserved@."
        fc.Workload.Scenarios.fc_requests
        !(fc.Workload.Scenarios.fc_completed)
        !(fc.Workload.Scenarios.fc_unserved);
      Format.printf "sim       %.0f ms, %d events%s@."
        stats.Net.Stats.completion_ms events
        (if outcome = `Budget_exhausted then " (budget exhausted)" else "");
      if sample > 0 then
        Format.printf
          "trace     %d sampled event(s) at 1/%d, covering %.0f sim ms@."
          (List.length trace_events) sample sampled_span;
      Format.printf "@.%-12s %-10s %9s %9s %8s %8s %6s %6s %6s@." "peer"
        "tier" "tx/s" "KB/s" "p95 ms" "p99 ms" "infl" "retx" "drops";
      List.iter
        (fun (name, tier, tx, kb, p95, p99, infl, retx, drops) ->
          Format.printf "%-12s %-10s %9.1f %9.2f %8.2f %8.2f %6.0f %6d %6d@."
            (Obs.Exporter.sanitize name)
            (Obs.Exporter.sanitize tier)
            tx kb p95 p99 infl retx drops)
        shown;
      if List.length ranked > rows then
        Format.printf "... %d more peer(s); raise --top to see them@."
          (List.length ranked - rows)
    end
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Run the flash-crowd scenario with the full observability stack on \
          (metrics, windowed telemetry, sampled tracing) and print a \
          per-peer load table: transmit rates, latency quantiles, in-flight \
          windows, retransmits and drops")
    Term.(
      const run $ peers $ subscribers $ requests $ seed $ reliable $ interval
      $ rows $ sample $ json)

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
