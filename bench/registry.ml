(* The experiment registry: the system experiments E17-E24, the
   scenarios behind axmlctl's chaos / place / cache / top (scale runs
   E20), and [all], every entry with the paper's claims first.  Entries
   that price the same scenario share one arm function: the flash crowd
   (E20, E21, E22, top), the hotspot (E23, place) and the overlap
   workload (E24, cache). *)

open Axml
open Runner
module Expr = Algebra.Expr
module System = Runtime.System
module Sc = Workload.Scenarios
module Placement = Runtime.Placement

let p1, p2, p3 = Paper.(p1, p2, p3)

(* Nearest-rank quantile; nan on an empty sample. *)
let quantile l q =
  match List.sort compare l with
  | [] -> Float.nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let reduction base v = 1.0 -. (float_of_int v /. float_of_int (max 1 base))
let arm_is name r = gets r "arm" = name

(* --- E17: structural indexes vs naive evaluation ----------------- *)

type e17 = { sizes : int list; estimate_items : int }

(* CPU milliseconds of the best of [n] runs (first-run noise —
   allocation, lazy compilation — must not be charged to either
   engine). *)
let best_ms ?(n = 3) f =
  let best = ref infinity and res = ref None in
  for _ = 1 to n do
    let r, ms = cpu_ms f in
    best := Float.min !best ms;
    res := Some r
  done;
  (!best, Option.get !res)

(* A catalog whose descendant-step selectivity is controlled twice
   over: a [sel] fraction of items carries the "wanted" category
   attribute (candidate-bound selection: the predicate is checked per
   item by both engines), and the same fraction carries a <promo>
   child element (label-bound selection: the index answers //promo
   from postings while the interpreter walks the whole document). *)
let promo_catalog ~gen ~rng ~items ~sel =
  let open Xml in
  let el ?attrs name children =
    Tree.element ~gen ?attrs (Label.of_string name) children
  in
  let item i =
    let matches = Workload.Rng.float rng 1.0 < sel in
    let promo =
      if matches then [ el "promo" [ Tree.text (Printf.sprintf "deal-%d" i) ] ]
      else []
    in
    el "item"
      ~attrs:
        [
          ("id", string_of_int i); ("category", if matches then "wanted" else "misc");
        ]
      (promo
      @ [
          el "name" [ Tree.text (Printf.sprintf "item-%d" i) ];
          el "price"
            [ Tree.text (string_of_int (1 + Workload.Rng.int rng 1000)) ];
          el "payload" [ Tree.text (String.make 64 'x') ];
        ])
  in
  el "catalog" (List.init items item)

let e17_queries () =
  [
    ( "rare-label",
      Query.Parser.parse_exn
        "query(1) for $p in $0//promo return <hit>{$p}</hit>" );
    ("attr-sel", Workload.Xml_gen.selection_query ());
  ]

let e17_run t _ =
  Obs.Metrics.set_enabled Obs.Metrics.default true;
  Obs.Metrics.reset Obs.Metrics.default;
  let sels = [ 0.01; 0.1; 0.5 ] in
  let eval_gen () = Xml.Node_id.Gen.create ~namespace:"e17out" in
  let same_output a b =
    Xml.Serializer.forest_to_string a = Xml.Serializer.forest_to_string b
  in
  table ~name:"sweep"
    (List.concat_map
       (fun items ->
         List.concat_map
           (fun sel ->
             let rng = Workload.Rng.create ~seed:17 in
             let g = Xml.Node_id.Gen.create ~namespace:"e17" in
             let doc = promo_catalog ~gen:g ~rng ~items ~sel in
             let build_ms, ix = best_ms (fun () -> Xml.Index.build doc) in
             List.map
               (fun (qname, q) ->
                 let naive_ms, out_n =
                   best_ms (fun () ->
                       Query.Eval.eval ~gen:(eval_gen ()) q [ [ doc ] ])
                 in
                 let indexed_ms, out_i =
                   best_ms (fun () ->
                       Query.Compile.eval_over ~gen:(eval_gen ()) q
                         [ ([ doc ], Some ix) ])
                 in
                 [
                   ("query", str qname); ("items", int items);
                   ("nodes", int (Xml.Tree.size doc)); ("selectivity", num "%.2f" sel);
                   ("build_ms", num "%.2f" build_ms); ("naive_ms", num "%.3f" naive_ms);
                   ("indexed_ms", num "%.4f" indexed_ms);
                   ("speedup", ratio (naive_ms /. max indexed_ms 1e-4));
                   ("identical", flag (same_output out_n out_i));
                 ])
               (e17_queries ()))
           sels)
       t.sizes);
  let total name =
    int_of_float
      (Obs.Metrics.total Obs.Metrics.default ~subsystem:"query" name)
  in
  let hits = total "index_hits" and fallbacks = total "fallback" in
  Obs.Metrics.set_enabled Obs.Metrics.default false;
  Obs.Metrics.reset Obs.Metrics.default;
  say
    "\npart C — planner output estimates for query(doc) with and without\n\
     store statistics: \"before\" is the flat input/5 heuristic, \"after\"\n\
     reads the store's exact per-label counts (Store.stats_of, one walk\n\
     of the document) into Selectivity.sketch.\n\
     err = |estimate - actual| / actual.\n\n";
  let topo = Net.Topology.full_mesh ~link:Paper.default_link [ p1; p2 ] in
  let estimates =
    List.concat_map
      (fun sel ->
        let rng = Workload.Rng.create ~seed:19 in
        let g = Xml.Node_id.Gen.create ~namespace:"e17c" in
        let doc = promo_catalog ~gen:g ~rng ~items:t.estimate_items ~sel in
        let store = Doc.Store.create () in
        Doc.Store.add store (Doc.Document.make ~name:"cat" doc);
        let stats =
          Doc.Store.stats_of store (Doc.Names.Doc_name.of_string "cat")
        in
        let doc_bytes _ = Xml.Tree.byte_size doc in
        let before = Algebra.Cost.default_env ~doc_bytes topo in
        let after =
          Algebra.Cost.default_env ~doc_bytes ~doc_stats:(fun _ -> stats) topo
        in
        List.map
          (fun (qname, q) ->
            let plan = Expr.query_at q ~at:p1 ~args:[ Expr.doc "cat" ~at:"p2" ] in
            let est env =
              (Algebra.Cost.of_expr env ~ctx:p1 plan).Algebra.Cost.result_bytes
            in
            let actual =
              Xml.Forest.byte_size
                (Query.Compile.eval ~gen:(eval_gen ()) q [ [ doc ] ])
            in
            let err est =
              Float.abs (float_of_int (est - actual))
              /. float_of_int (max 1 actual)
            in
            [
              ("query", str qname); ("selectivity", num "%.2f" sel);
              ("actual_bytes", int actual); ("est_before", int (est before));
              ("est_after", int (est after)); ("err_before", ratio (err (est before)));
              ("err_after", ratio (err (est after)));
            ])
          (e17_queries ()))
      sels
  in
  table ~name:"cost_estimate" estimates;
  let mean col =
    List.fold_left (fun a r -> a +. getf r col) 0.0 estimates
    /. float_of_int (List.length estimates)
  in
  table ~name:"summary"
    [
      [
        ("index_hits", int hits); ("fallbacks", int fallbacks);
        ("mean_cost_err_before", num "%.2f" (mean "err_before"));
        ("mean_cost_err_after", num "%.2f" (mean "err_after"));
      ];
    ];
  say
    "\nshape: the index pays off exactly where traversal dominated — the\n\
     rare-label speedup grows with document size and scarcity while the\n\
     candidate-bound query is flat; statistics shrink the planner's\n\
     output-size error by an order of magnitude on the label-bound query\n"

let e17 =
  E
    {
      id = "E17"; title = "structural index vs naive evaluation";
      about =
        "part A — one query, two evaluators over the same document: naive is\n\
         the seed interpreter Query.Eval (full traversal per descendant step),\n\
         indexed is Query.Compile over the store's structural index.\n\
         \"rare-label\" binds //promo (matches only the selected fraction);\n\
         \"attr-sel\" binds //item and filters on an attribute (candidate\n\
         work dominates — the honest case where indexing helps less).";
      smoke = Some { sizes = [ 14; 143 ]; estimate_items = 143 };
      full = { sizes = [ 14; 143; 1_430; 14_300 ]; estimate_items = 1_430 };
      arms = []; run = e17_run;
      gates =
        [
          gate ~table:"sweep" "indexed outputs equal naive outputs"
            (every "identical");
        ];
    }

(* --- E18: reliable delivery overhead under injected faults ------- *)

(* A chatty two-site join under a seeded lossy network (DESIGN.md §12):
   the Reliable transport must keep producing the fault-free answer at
   every drop rate, and this prices that guarantee — extra bytes
   (retransmissions) and extra virtual time (retry backoff) relative to
   the drop-free run.  The Raw arm counts how often plain datagrams
   lose the answer under the same fault plans. *)

type e18 = { items : int; rounds : int; rates : float list; seeds : int list }

let join_query =
  {|query(2) for $x in $0//item, $y in $1//item where attr($x, "category") = "wanted" and attr($y, "category") = "wanted" return <pair>{attr($x, "id")}{attr($y, "id")}</pair>|}

let catalog_at sys ~items ~seed p =
  let rng = Workload.Rng.create ~seed in
  System.add_document sys p ~name:"cat"
    (Workload.Xml_gen.catalog ~gen:(System.gen_of sys p) ~rng ~items
       ~selectivity:0.2 ())

let e18_run t arms =
  let plan =
    Expr.query_at (Query.Parser.parse_exn join_query) ~at:p1
      ~args:[ Expr.doc "cat" ~at:"p2"; Expr.doc "cat" ~at:"p3" ]
  in
  (* Several rounds of the join over one faulty system: more messages
     through the fault plan per trial, cumulative stats at the end.
     The retry timer waits for a catalog's transfer before it counts,
     so the drop-free baseline has zero spurious retransmissions. *)
  let run arm fault =
    let sys =
      System.create ~transport:(List.assoc arm arms)
        (Net.Topology.full_mesh ~link:Paper.default_link [ p1; p2; p3 ])
    in
    List.iteri (fun i p -> catalog_at sys ~items:t.items ~seed:(180 + i) p) [ p2; p3 ];
    Option.iter (System.inject_faults sys) fault;
    let outs =
      List.init t.rounds (fun i ->
          Runtime.Exec.run_to_quiescence ~reset_stats:(i = 0) sys ~ctx:p1 plan)
    in
    let elapsed =
      List.fold_left (fun a (o : Runtime.Exec.outcome) -> a +. o.elapsed_ms) 0.0 outs
    in
    (outs, elapsed, System.fingerprint sys, System.reliability_counters sys)
  in
  let ref_outs, base_ms, ref_fp, _ = run "reliable" None in
  let ref_results = (List.hd ref_outs).Runtime.Exec.results in
  let agrees (outs, _, fp, _) =
    List.for_all
      (fun (o : Runtime.Exec.outcome) ->
        o.finished && Xml.Canonical.equal_forest ref_results o.results)
      outs
    && String.equal ref_fp fp
  in
  let cumulative outs =
    (List.nth outs (t.rounds - 1) : Runtime.Exec.outcome).stats
  in
  let base_bytes = (cumulative ref_outs).bytes in
  table ~name:"base"
    [ [ ("base_bytes", int base_bytes); ("base_virtual_ms", ms base_ms) ] ];
  let fault ~drop ~seed =
    if drop = 0.0 then None
    else
      Some
        (Net.Fault.make
           ~profile:{ Net.Fault.drop; duplicate = 0.0; jitter_ms = 0.0 }
           ~quiet_after_ms:30_000.0 ~seed ())
  in
  table
    (List.map
       (fun drop ->
         let n = float_of_int (List.length t.seeds) in
         let runs = List.map (fun seed -> run "reliable" (fault ~drop ~seed)) t.seeds in
         let raw_lost =
           List.filter (fun seed -> not (agrees (run "raw" (fault ~drop ~seed)))) t.seeds
         in
         let avg f = List.fold_left (fun a r -> a +. f r) 0.0 runs /. n in
         let bytes = avg (fun (outs, _, _, _) -> float_of_int (cumulative outs).bytes) in
         let virt = avg (fun (_, e, _, _) -> e) in
         let counter f = avg (fun (_, _, _, rc) -> float_of_int (f rc)) in
         [
           ("drop", num "%.2f" drop); ("runs", int (List.length t.seeds));
           ("bytes_avg", num "%.0f" bytes);
           ("byte_overhead", num "%.2fx" (bytes /. float_of_int (max base_bytes 1)));
           ("virtual_ms_avg", ms virt);
           ("time_overhead", num "%.2fx" (virt /. max base_ms 1e-6));
           ("retransmits_avg", num "%.1f" (counter (fun rc -> rc.System.retransmits)));
           ( "drops_avg",
             num "%.1f"
               (avg (fun (outs, _, _, _) -> float_of_int (cumulative outs).drops)) );
           ( "dup_suppressed_avg",
             num "%.1f" (counter (fun rc -> rc.System.dup_suppressed)) );
           ("reliable_correct", int (List.length (List.filter agrees runs)));
           ("raw_lost", int (List.length raw_lost));
         ])
       t.rates)

let e18 =
  E
    {
      id = "E18"; title = "reliable delivery overhead vs drop rate";
      about =
        "workload: repeated two-site joins at p1 over catalogs stored at p2\n\
         and p3; per-link drop probability swept, faults quiet after 30s\n\
         virtual (eventual connectivity), several fault seeds per rate";
      smoke =
        Some { items = 20; rounds = 2; rates = [ 0.0; 0.1; 0.3 ]; seeds = [ 1; 2 ] };
      full =
        { items = 40; rounds = 4; rates = [ 0.0; 0.02; 0.05; 0.1; 0.2; 0.3 ];
          seeds = [ 1; 2; 3; 4; 5 ] };
      arms = [ ("reliable", System.Reliable); ("raw", System.Raw) ];
      run = e18_run;
      gates =
        [
          gate "every reliable run reproduces the fault-free answer and Σ"
            (List.for_all (fun r -> geti r "reliable_correct" = geti r "runs"));
        ];
    }

(* --- E19: batched transport ablation ----------------------------- *)

(* Coalescing ablation (DESIGN.md §13): the same chatty workloads run
   at the Reliable window's 0/0 defaults (each message shipped bare and
   acked on arrival) and with its flush/ack-delay knobs raised; the
   delta prices per-message envelopes and per-message acks.  Two
   traffic shapes: a continuous service streaming many tiny responses
   (envelope-dominated) and repeated two-site joins (request/response,
   where acks ride reverse batches).  Every batched run must reproduce
   its 0/0 twin's answer and final Σ. *)

type e19 = { stream_k : int; items : int; join_rounds : int }

let e19_run t arms =
  let join = Query.Parser.parse_exn join_query in
  let system ?(response_delay_ms = 1.0) peers (flush_ms, ack_delay_ms) =
    System.create ~transport:System.Reliable ~response_delay_ms ~flush_ms
      ~ack_delay_ms
      (Net.Topology.full_mesh ~link:Paper.default_link peers)
  in
  let finish sys outs =
    ( (List.hd outs).Runtime.Exec.results,
      List.for_all (fun (o : Runtime.Exec.outcome) -> o.finished) outs,
      (List.nth outs (List.length outs - 1)).Runtime.Exec.stats,
      System.fingerprint sys,
      System.reliability_counters sys )
  in
  (* stream: a continuous service at p2 pushing [stream_k] one-element
     responses, 1ms apart, into a collector document at p1; its answer
     lives in the collector, so the final Σ is what gets compared. *)
  let stream knobs =
    let sys = system [ p1; p2 ] knobs in
    System.add_service sys p2
      (Doc.Service.extern ~name:"streamer"
         ~signature:(Schema.Signature.untyped ~arity:0)
         (fun _ ->
           let g = Xml.Node_id.Gen.create ~namespace:"e19-stream" in
           List.init t.stream_k (fun i ->
               Xml.Tree.element_of_string ~gen:g "s"
                 [ Xml.Tree.text (string_of_int i) ])));
    let inbox =
      Xml.Tree.element_of_string
        ~gen:(Xml.Node_id.Gen.create ~namespace:"e19-inbox")
        "inbox" []
    in
    System.add_document sys p1 ~name:"collector" inbox;
    let forward =
      [ Doc.Names.Node_ref.make ~node:(Option.get (Xml.Tree.id inbox)) ~peer:p1 ]
    in
    let plan =
      Expr.sc
        (Doc.Sc.make ~forward ~provider:(Doc.Names.At p2) ~service:"streamer" [])
        ~at:p1
    in
    finish sys [ Runtime.Exec.run_to_quiescence sys ~ctx:p1 plan ]
  in
  (* join: repeated two-site joins, the shape where delayed acks
     piggyback. *)
  let join_rounds knobs =
    let sys = system [ p1; p2; p3 ] knobs in
    List.iteri (fun i p -> catalog_at sys ~items:t.items ~seed:(190 + i) p) [ p2; p3 ];
    let plan =
      Expr.query_at join ~at:p1
        ~args:[ Expr.doc "cat" ~at:"p2"; Expr.doc "cat" ~at:"p3" ]
    in
    finish sys
      (List.init t.join_rounds (fun i ->
           Runtime.Exec.run_to_quiescence ~reset_stats:(i = 0) sys ~ctx:p1 plan))
  in
  let rows =
    List.concat_map
      (fun (workload, run) ->
        let runs = List.map (fun (arm, knobs) -> (arm, knobs, run knobs)) arms in
        let _, _, (res0, fin0, (st0 : Net.Stats.snapshot), fp0, _) = List.hd runs in
        List.map
          (fun (arm, (flush, ack), (res, fin, (st : Net.Stats.snapshot), fp, rc)) ->
            let rc : System.reliability_counters = rc in
            [
              ("workload", str workload); ("arm", str arm);
              ("flush_ms", num "%g" flush); ("ack_delay_ms", num "%g" ack);
              ("messages", int st.messages);
              ("payload_messages", int st.payload_messages);
              ("bytes", int st.bytes); ("acks_sent", int rc.acks_sent);
              ("batches_sent", int rc.batches_sent);
              ("batched_messages", int rc.batched_messages);
              ("piggybacked_acks", int rc.piggybacked_acks);
              ("delayed_acks", int rc.delayed_acks);
              ("message_reduction", pct (reduction st0.messages st.messages));
              ("byte_reduction", pct (reduction st0.bytes st.bytes));
              ( "correct",
                flag
                  (fin && fin0
                  && Xml.Canonical.equal_forest res0 res
                  && String.equal fp0 fp) );
            ])
          runs)
      [ ("stream", stream); ("join", join_rounds) ]
  in
  table rows;
  (* Headline: aggregate frame/byte reduction across both workloads at
     the recommended 2/8 knobs. *)
  let sum arm col =
    List.fold_left (fun a r -> if arm_is arm r then a + geti r col else a) 0 rows
  in
  let off = fst (List.hd arms) and on = "2/8" in
  table ~name:"headline"
    [
      [
        ("arm", str on); ("messages_off", int (sum off "messages"));
        ("messages_on", int (sum on "messages"));
        ("bytes_off", int (sum off "bytes")); ("bytes_on", int (sum on "bytes"));
        ("message_reduction", pct (reduction (sum off "messages") (sum on "messages")));
        ("byte_reduction", pct (reduction (sum off "bytes") (sum on "bytes")));
      ];
    ];
  say
    "\nshape: the chatty stream collapses into a handful of frames — the\n\
     flush window removes envelopes and the ack delay removes standalone\n\
     acks (piggybacked on reverse batches where traffic flows both ways)\n"

let e19 =
  E
    {
      id = "E19"; title = "batched transport ablation";
      about =
        "workloads: stream (chatty continuous service) and join\n\
         (request/response rounds); each runs at the Reliable window's\n\
         defaults (flush 0/ack 0) and with batching on";
      smoke = Some { stream_k = 15; items = 15; join_rounds = 2 };
      full = { stream_k = 40; items = 30; join_rounds = 3 };
      arms =
        [ ("0/0", (0.0, 0.0)); ("0.5/2", (0.5, 2.0)); ("2/8", (2.0, 8.0));
          ("5/20", (5.0, 20.0)) ];
      run = e19_run;
      gates =
        [
          gate "every batched run reproduces its 0/0 twin" (every "correct");
          gate ~table:"headline" "the 2/8 knobs cut frames by at least 30%"
            (List.for_all (fun r -> getf r "message_reduction" >= 0.30));
        ];
    }

(* --- the flash crowd: E20, E21, E22, top ------------------------ *)

(* (mirrors, subscribers, requests per subscriber) points on one seed. *)
type crowd = { points : (int * int * int) list; seed : int }

(* The System knobs and telemetry one crowd arm runs under. *)
type crowd_arm = {
  transport : System.transport;
  wire : System.wire;
  flush_ms : float;
  ack_delay_ms : float;
  metrics : bool;
  series_ms : float option;  (** windowed timeseries at this width *)
  keep_one_in : int;  (** trace head sampling; 0 = tracing off *)
}

let plain =
  { transport = System.Raw; wire = System.Xml; flush_ms = 0.0; ack_delay_ms = 0.0;
    metrics = false; series_ms = None; keep_one_in = 0 }

(* Tiers of 10, 100 and 1000 peers (publisher included), sized so the
   top tier delivers ~10^6 messages. *)
let crowd_smoke = { points = [ (3, 6, 20); (8, 41, 20) ]; seed = 11 }
let crowd_full = { points = [ (3, 6, 800); (8, 91, 550); (24, 975, 512) ]; seed = 11 }

(* Telemetry as arm [a] sets it, every registry emptied. *)
let set_obs ~seed a =
  Obs.Metrics.set_enabled Obs.Metrics.default a.metrics;
  Obs.Metrics.reset Obs.Metrics.default;
  Option.iter (Obs.Timeseries.set_window Obs.Timeseries.default) a.series_ms;
  Obs.Timeseries.set_enabled Obs.Timeseries.default (a.series_ms <> None);
  Obs.Timeseries.reset Obs.Timeseries.default;
  Obs.Trace.set_enabled (a.keep_one_in > 0);
  Obs.Trace.clear ();
  Obs.Trace.set_sampling ~seed ~keep_one_in:(max 1 a.keep_one_in) ()

let obs_off () = set_obs ~seed:0 plain

(* Harness GC policy: with ~10^3 concurrent requests the in-flight
   state (continuations, messages on the wire, armed timers) is
   comparable to the default 256k-word nursery, so nearly every
   in-flight object would be promoted and the major GC would dominate.
   A simulation-scale nursery keeps short-lived state out of the major
   heap; restored afterwards so other entries measure under defaults. *)
let with_nursery f =
  let gc0 = Gc.get () in
  Gc.set { gc0 with Gc.minor_heap_size = 8 * 1024 * 1024 };
  Fun.protect ~finally:(fun () -> obs_off (); Gc.set gc0) f

(* One crowd run: telemetry configured, the scenario built, System.run
   bracketed by the runner.  Telemetry is left as the arm set it, so
   the caller can read it before [obs_off]. *)
let crowd_run ~seed (mirrors, subscribers, reqs) (arm, a) =
  set_obs ~seed a;
  let fc =
    Sc.flash_crowd ~mirrors ~subscribers ~requests_per_subscriber:reqs
      ~transport:a.transport ~wire:a.wire ~flush_ms:a.flush_ms
      ~ack_delay_ms:a.ack_delay_ms ~seed ()
  in
  let sys = fc.fc_system in
  let peers = 1 + mirrors + subscribers in
  (* Batched arms spend ~12 events per request (flush timers, acks,
     retransmission bookkeeping), raw arms ~3. *)
  let budget = (16 * fc.fc_requests) + (40 * peers) + 10_000 in
  let (outcome, events), c = measure (fun () -> System.run ~max_events:budget sys) in
  let st = System.stats sys in
  let rc = System.reliability_counters sys in
  let completed = !(fc.fc_completed) and unserved = !(fc.fc_unserved) in
  let per_event x = x /. Float.max 1.0 (float_of_int events) in
  ( fc,
    [
      ("peers", int peers); ("arm", str arm); ("requests", int fc.fc_requests);
      ("completed", int completed); ("unserved", int unserved);
      ("messages", int st.messages); ("bytes", int st.bytes); ("events", int events);
      ("completion_virtual_ms", num "%.0f" (System.now_ms sys));
      ("wall_s", num "%.3f" c.wall_s);
      ("events_per_sec", num "%.3g" (float_of_int events /. Float.max c.wall_s 1e-9));
      ("words_per_event", num "%.1f" (per_event c.words));
      ("sampled_spans", int (if a.keep_one_in > 0 then Obs.Trace.count () else 0));
      ( "timeseries_keys",
        int (List.length (Obs.Timeseries.keys Obs.Timeseries.default)) );
      ("retransmits", int rc.retransmits); ("abandoned", int rc.abandoned);
      ("budget_exhausted", flag (outcome = `Budget_exhausted));
      ("fingerprint", digest (System.fingerprint sys));
      ( "quiescent_and_complete",
        flag (outcome = `Quiescent && completed = fc.fc_requests && unserved = 0) );
    ] )

(* Every point under every arm, telemetry off between arms; [f] sees
   each run's scenario and row.  No run's system may outlive its arm:
   a live system's trees stay keys in Tree's memo and perturb the next
   arm's allocation count. *)
let crowd_rows t arms f =
  List.concat_map
    (fun point ->
      List.map
        (fun arm ->
          let fc, row = crowd_run ~seed:t.seed point arm in
          obs_off ();
          f fc row)
        arms)
    t.points

let every_arm_completes =
  gate "every arm completes" (every "quiescent_and_complete")

(* Pre-refactor reference points, measured with this exact scenario on
   the harness before the dense-id / connection-record / counter-handle
   / array-heap refactor: (peers, events, events/sec).  A row gets a
   speedup only when its event count shows it is the same run. *)
let e20_pre_refactor =
  [ (10, 14403, 6.52e5); (100, 150158, 3.93e5); (1000, 1497624, 2.21e5) ]

(* Per-tier traffic: the per-link matrix aggregated by the role of
   each endpoint. *)
let traffic (fc : Sc.flash_crowd) =
  let role p =
    if Net.Peer_id.equal p fc.fc_publisher then "publisher"
    else if List.exists (Net.Peer_id.equal p) fc.fc_mirrors then "mirror"
    else "subscriber"
  in
  List.fold_left
    (fun acc ((src, dst), (m, b)) ->
      let key = role src ^ " -> " ^ role dst in
      let m0, b0 = Option.value ~default:(0, 0) (List.assoc_opt key acc) in
      (key, (m0 + m, b0 + b)) :: List.remove_assoc key acc)
    [] (System.stats fc.fc_system).per_link
  |> List.sort compare

let e20_run t arms =
  with_nursery @@ fun () ->
  let runs = crowd_rows t arms (fun fc r -> (r, traffic fc)) in
  let speedup r =
    List.fold_left
      (fun acc (peers, events, eps) ->
        if peers = geti r "peers" && events = geti r "events" then
          getf r "events_per_sec" /. eps
        else acc)
      0.0 e20_pre_refactor
  in
  table
    (List.map
       (fun (r, _) -> r @ [ ("speedup_vs_pre_refactor", num "%.2fx" (speedup r)) ])
       runs)
    ~show:
      [ "peers"; "arm"; "requests"; "completed"; "messages"; "events";
        "completion_virtual_ms"; "wall_s"; "events_per_sec"; "words_per_event";
        "speedup_vs_pre_refactor"; "quiescent_and_complete" ];
  table ~name:"traffic"
    (List.concat_map
       (fun (r, links) ->
         List.map
           (fun (link, (m, b)) ->
             [ ("peers", int (geti r "peers")); ("link", str link); ("messages", int m);
               ("bytes", int b) ])
           links)
       runs);
  say
    "\nshape: events/sec should stay flat as peer count grows — per-event\n\
     work is array-indexed, not string-hashed — and the top tier should\n\
     complete its ~10^6 messages in single-digit seconds\n"

let e20 =
  {
    id = "E20"; title = "web-scale flash crowd";
    about =
      "scenario: 1 publisher, N mirrors behind a generic fetch class, M\n\
       subscribers arriving on a flash-crowd ramp, each running a closed\n\
       request loop (Invoke + Stream response = 2 remote messages per\n\
       request); measures events/sec, wall-clock and allocation per event\n\
       across peer-count tiers";
    smoke = Some crowd_smoke; full = crowd_full;
    arms = [ ("raw", plain) ]; run = e20_run;
    gates =
      [
        gate "every request completes"
          (List.for_all (fun r -> geti r "completed" = geti r "requests"));
        gate ~slo:true
          "no unserved request, abandoned delivery or budget exhaustion"
          (List.for_all (fun r ->
               geti r "unserved" = 0
               && geti r "abandoned" = 0
               && not (getb r "budget_exhausted")));
      ];
  }

(* --- E21: observability overhead ablation ------------------------ *)

(* Prices the telemetry stack of DESIGN.md §15 on the E20 crowd: the
   same tiers with everything off, with cumulative metrics, with
   metrics + head-sampled tracing (1 in 64 correlations), with the full
   stack (+ windowed timeseries), and off again.  The disabled path must
   allocate nothing: the two off arms bracketing the instrumented ones
   agree on words/event to the word (the E16 invariant, extended to
   every record site).  Wall clock is too noisy to gate; the metrics
   arm's cost reads off the wall_s column. *)
let e21_run t arms =
  with_nursery @@ fun () ->
  table (crowd_rows t arms (fun _ r -> r))
    ~show:
      [ "peers"; "arm"; "events"; "wall_s"; "words_per_event"; "sampled_spans";
        "timeseries_keys"; "quiescent_and_complete" ]

let e21 =
  let metrics = { plain with metrics = true } in
  E
    {
      id = "E21"; title = "observability overhead ablation";
      about =
        "scenario: the E20 flash crowd per observability arm — off /\n\
         metrics / metrics+sampled traces (1/64) / full stack / off again;\n\
         words/event of the two off arms must agree exactly, the metrics\n\
         arm should cost <= ~10% extra wall clock, and the sampled arms must\n\
         complete every tier";
      smoke = Some crowd_smoke; full = crowd_full;
      arms =
        [
          ("off", plain); ("metrics", metrics);
          ("metrics+traces", { metrics with keep_one_in = 64 });
          ("full", { metrics with series_ms = Some 100.0; keep_one_in = 64 });
          ("off (after)", plain);
        ];
      run = e21_run;
      gates =
        [
          gate "the off arms agree on words/event to the word"
            (pairs ~by:[ "peers" ] "off" "off (after)" (fun a b ->
                 getf a "words_per_event" = getf b "words_per_event"));
          every_arm_completes;
        ];
    }

(* --- E22: binary wire codec ablation ------------------------------ *)

(* Prices the compact binary wire (DESIGN.md §16) against the XML
   sizing model on the E20 crowd.  The batched arms (flush 2 ms, ack
   8 ms) size every frame on send and again on every retransmission
   re-batch, so the wire's accounting cost is on the per-event path;
   raw arms are the floor where both wires charge once per message.
   Gates: the wire never changes answers (binary-strict, which
   round-trips every transmission through encode/decode, included) and
   binary frames are strictly smaller than the XML model. *)
let e22_run t arms =
  with_nursery @@ fun () ->
  let rows = crowd_rows t arms (fun _ r -> r) in
  table rows
    ~show:
      [ "peers"; "arm"; "events"; "messages"; "bytes"; "wall_s"; "words_per_event";
        "quiescent_and_complete" ];
  (* Strict wire on the smallest tier: every transmission crosses the
     codec, and the answers must not change. *)
  let strict =
    { (List.assoc "batched/binary" arms) with wire = System.Binary_strict }
  in
  let _, srow =
    crowd_run ~seed:t.seed (List.hd t.points) ("batched/binary-strict", strict)
  in
  obs_off ();
  let reference =
    List.find (fun r -> arm_is "batched/xml" r && geti r "peers" = geti srow "peers") rows
  in
  let agrees = get reference "fingerprint" = get srow "fingerprint" in
  table ~name:"strict_wire"
    [ srow @ [ ("fingerprint_agrees", flag agrees) ] ]
    ~show:
      [ "peers"; "events"; "messages"; "fingerprint_agrees"; "quiescent_and_complete" ]

let wire_pairs ok rows =
  pairs ~by:[ "peers" ] "raw/xml" "raw/binary" ok rows
  && pairs ~by:[ "peers" ] "batched/xml" "batched/binary" ok rows

let e22 =
  let batched wire =
    { plain with transport = System.Reliable; wire; flush_ms = 2.0; ack_delay_ms = 8.0 }
  in
  E
    {
      id = "E22"; title = "binary wire codec ablation";
      about =
        "scenario: the E20 flash crowd per wire arm — raw and batched\n\
         reliable (flush 2 ms, ack 8 ms) under the XML sizing model vs the\n\
         binary codec; per tier and transport the two wires must agree on\n\
         the final Σ while the binary wire ships smaller frames, and on the\n\
         batched arms it should cost less wall and allocation per event";
      smoke = Some crowd_smoke; full = crowd_full;
      arms =
        [
          ("raw/xml", plain); ("raw/binary", { plain with wire = System.Binary });
          ("batched/xml", batched System.Xml);
          ("batched/binary", batched System.Binary);
        ];
      run = e22_run;
      gates =
        [
          gate "the wires agree on Σ per tier and transport"
            (wire_pairs (fun x b -> get x "fingerprint" = get b "fingerprint"));
          gate "binary frames are smaller than the XML model"
            (wire_pairs (fun x b -> geti b "bytes" < geti x "bytes"));
          every_arm_completes;
          gate ~table:"strict_wire" "the strict wire reproduces Σ and completes"
            (fun rows ->
              every "fingerprint_agrees" rows && every "quiescent_and_complete" rows);
        ];
    }

(* --- top: the per-peer telemetry table --------------------------- *)

type top = { crowd : crowd; shown : int }

(* The crowd under the full observability stack, then the windowed
   rings read back per peer: transmit rate, KB/s, latency quantiles,
   in-flight peak, retransmits and drops; the [shown] busiest peers. *)
let top_run t arms =
  with_nursery @@ fun () ->
  let ((_, a) as arm) = List.hd arms in
  let fc, row = crowd_run ~seed:t.crowd.seed (List.hd t.crowd.points) arm in
  let reg = Obs.Timeseries.default in
  let interval = Obs.Timeseries.window_ms reg in
  let now = Obs.Timeseries.now reg in
  let windows = Obs.Timeseries.ring_size reg in
  let cur = Obs.Timeseries.epoch_of reg now in
  let fold_windows ~upto key f init =
    let acc = ref init in
    for e = max 0 (cur - windows + 1) to upto do
      Option.iter (fun w -> acc := f !acc w) (Obs.Timeseries.read_window reg key ~epoch:e)
    done;
    !acc
  in
  (* Bytes/sec: w_sum over the complete windows before the current one. *)
  let sum_rate key =
    fold_windows ~upto:(cur - 1) key (fun acc w -> acc +. w.Obs.Timeseries.w_sum) 0.0
    /. (float_of_int (windows - 1) *. interval /. 1000.0)
  in
  let peak key =
    fold_windows ~upto:cur key
      (fun acc w -> if w.Obs.Timeseries.w_count > 0 then Float.max acc w.w_max else acc)
      0.0
  in
  (* Retransmits at the sending peer; drops where Stats counts them:
     at the sender for a link drop, at the destination for an arrival
     at a crashed peer. *)
  let sys = fc.Sc.fc_system in
  let retransmits = System.reliability_by_peer sys in
  let drops = Net.Stats.drops_by_peer (Net.Sim.stats (System.sim sys)) in
  let peer_row (p, role) =
    let name = Net.Peer_id.to_string p in
    let k suffix = "peer/" ^ name ^ "/" ^ suffix in
    let q quant = Obs.Timeseries.quantile reg (k "latency_ms") ~now ~windows ~q:quant in
    [
      ("peer", str (Obs.Exporter.sanitize name)); ("tier", str role);
      ( "tx_per_s",
        num "%.1f" (Obs.Timeseries.rate reg (k "tx") ~now ~windows:(windows - 1)) );
      ("kb_per_s", num "%.2f" (sum_rate (k "tx") /. 1024.0));
      ("p95_ms", num "%.2f" (q 0.95)); ("p99_ms", num "%.2f" (q 0.99));
      (* Peak over the peer's outgoing connections (recorded by the
         Reliable transport; 0 under Raw). *)
      ("inflight", num "%.0f" (peak (k "inflight")));
      ( "retransmits",
        int
          (match List.assoc_opt p retransmits with
          | Some (r : System.reliability_counters) -> r.retransmits
          | None -> 0) );
      ("drops", int (Option.value ~default:0 (List.assoc_opt p drops)));
    ]
  in
  let ranked =
    ((fc.fc_publisher, "publisher") :: List.map (fun m -> (m, "mirror")) fc.fc_mirrors)
    @ List.map (fun s -> (s, "subscriber")) fc.fc_subscribers
    |> List.map peer_row
    |> List.stable_sort (fun r1 r2 ->
           match compare (getf r2 "tx_per_s") (getf r1 "tx_per_s") with
           | 0 -> compare (gets r1 "peer") (gets r2 "peer")
           | c -> c)
  in
  let span =
    match Obs.Trace.events () with
    | [] -> 0.0
    | events ->
        let lo, hi =
          List.fold_left
            (fun (lo, hi) (e : Obs.Trace.event) ->
              (Float.min lo e.ts_ms, Float.max hi (e.ts_ms +. e.dur_ms)))
            (infinity, neg_infinity) events
        in
        hi -. lo
  in
  table ~name:"run"
    [
      row
      @ [
          ("window_ms", num "%g" interval); ("keep_one_in", int a.keep_one_in);
          ("sampled_span_ms", num "%.0f" span);
        ];
    ]
    ~show:
      [ "peers"; "requests"; "completed"; "unserved"; "events";
        "completion_virtual_ms"; "window_ms"; "sampled_spans"; "sampled_span_ms" ];
  table ~name:"peers" (List.filteri (fun i _ -> i < t.shown) ranked);
  let hidden = List.length ranked - t.shown in
  if hidden > 0 then say "... %d more peer(s); raise --top to see them\n" hidden

let top =
  {
    id = "top"; title = "per-peer telemetry over a flash crowd";
    about =
      "the flash crowd under metrics, windowed timeseries and sampled\n\
       tracing; the busiest peers by transmit rate (in-flight reads 0\n\
       under the Raw transport)";
    smoke = Some { crowd = { points = [ (9, 30, 3) ]; seed = 5 }; shown = 12 };
    full = { crowd = { points = [ (19, 80, 4) ]; seed = 1 }; shown = 12 };
    arms =
      [
        ( "full",
          { plain with metrics = true; series_ms = Some 100.0; keep_one_in = 64 } );
      ];
    run = top_run;
    gates = [];
  }

(* --- the hotspot: E23, place -------------------------------------- *)

(* One hotspot shape: 10 % of documents draw 90 % of a closed-loop read
   population under streaming appends; serving a read costs 3 cpu-ms/KB
   at the serving peer, so a hot owner saturates — exactly the queue
   the controller is supposed to drain.  [faults] builds the fault plan
   (failover on) for a chaos tier. *)
type hot = {
  label : string; owners : int; spares : int; readers : int; docs : int; reads : int;
  appends : int; append_every_ms : float; payload_bytes : int; seed : int;
  wire : System.wire; faults : (Sc.hotspot -> Net.Fault.plan) option;
}

let hot_small =
  { label = "calm"; owners = 4; spares = 2; readers = 16; docs = 12; reads = 10;
    appends = 4; append_every_ms = 10.0; payload_bytes = 1024; seed = 11;
    wire = System.Xml; faults = None }

(* Static: seeded random reader picks, no controller.  Adaptive:
   load-steered picks plus the §17 migration controller. *)
let hot_arms = [ ("static", false); ("adaptive", true) ]

let hot_run t (arm, adaptive) =
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
    Sc.hotspot ~owners:t.owners ~spares:t.spares ~readers:t.readers ~docs:t.docs
      ~hot_fraction:0.1 ~hot_share:0.9 ~reads_per_reader:t.reads ~appends:t.appends
      ~append_every_ms:t.append_every_ms ~payload_bytes:t.payload_bytes ~think_ms:2.0
      ~arrival_window_ms:100.0 ~steered:adaptive ~cpu_ms_per_kb:3.0 ~wire:t.wire
      ~seed:t.seed ()
  in
  let sys = hs.hs_system in
  let storage = hs.hs_owners @ hs.hs_spares in
  if t.faults <> None then ignore (Runtime.Failover.enable sys);
  let ctl =
    if not adaptive then None
    else
      Some
        (Placement.enable
           ~cfg:
             { Placement.default_config with tick_ms = 20.0; windows = 3;
               hot_rate = 100.0; migrations_per_tick = 2; seed = t.seed + 99;
               eligible = Some (fun p -> List.exists (Net.Peer_id.equal p) storage) }
           sys)
  in
  Option.iter (fun plan -> System.inject_faults sys (plan hs)) t.faults;
  let (outcome, events), c = measure (fun () -> System.run sys) in
  let st = System.stats sys in
  let lats = !(hs.hs_latencies) in
  let completed = !(hs.hs_completed) and unserved = !(hs.hs_unserved) in
  ( ctl,
    [
      ("tier", str t.label); ("arm", str arm); ("events", int events);
      ("served", int completed); ("unserved", int unserved);
      ("p50_ms", ms (quantile lats 0.50)); ("p95_ms", ms (quantile lats 0.95));
      ("p99_ms", ms (quantile lats 0.99)); ("messages", int st.messages);
      ("bytes", int st.bytes);
      ( "migrations_committed",
        int (match ctl with Some c -> (Placement.stats c).s_committed | None -> 0) );
      ("abandoned", int (System.reliability_counters sys).abandoned);
      ("fingerprint", digest (System.content_fingerprint sys));
      ("wall_s", num "%.3f" c.wall_s);
      ( "quiescent_and_complete",
        flag (outcome = `Quiescent && completed = hs.hs_requests && unserved = 0) );
    ] )

let hot_show =
  [ "tier"; "arm"; "served"; "unserved"; "p50_ms"; "p95_ms"; "p99_ms"; "messages";
    "bytes"; "migrations_committed"; "quiescent_and_complete" ]

let sigma_agrees = gate "Σ content agrees across runs" (same "fingerprint")

(* The E23 chaos tier: probabilistic faults quiet by 400 ms shape the
   read tails; the owner crash sits after the read streams drain (and
   past quiet + the longest single retry wait, 1280 ms past a frame's
   expected arrival plus ack_delay_ms — the discipline under which the
   transport provably converges, see test_fault.ml).  A mid-stream
   crash would eat in-flight eval state — volatile by design — so it
   gates Σ convergence through failover + replica resync, not the
   latency table. *)
let e23_chaos (hs : Sc.hotspot) =
  Net.Fault.make
    ~profile:{ Net.Fault.drop = 0.12; duplicate = 0.04; jitter_ms = 2.0 }
    ~events:
      [
        Net.Fault.Partition
          { island = [ List.hd hs.hs_spares ];
            window = Net.Fault.window ~from_ms:100.0 ~until_ms:250.0 };
        Net.Fault.Crash
          { peer = List.hd hs.hs_owners; at_ms = 8000.0; restart_ms = Some 8250.0 };
      ]
    ~quiet_after_ms:400.0 ~seed:23 ()

let e23_tiers calm = [ calm; { calm with label = "chaos"; faults = Some e23_chaos } ]

let e23 =
  E
    {
      id = "E23"; title = "adaptive replica placement";
      about =
        "scenario: hotspot — 10% of documents draw 90% of a closed-loop\n\
         read population under streaming appends; static placement (seeded\n\
         random reader picks, no controller) vs adaptive (load-steered\n\
         picks + the §17 migration controller), on calm links and under a\n\
         chaos plan; Σ content must agree across all four runs while the\n\
         adaptive arm relieves the hot-owner queue";
      smoke = Some (e23_tiers hot_small);
      full =
        e23_tiers
          { hot_small with owners = 6; spares = 4; readers = 32; docs = 40; reads = 50;
            appends = 6; append_every_ms = 40.0; payload_bytes = 2048 };
      arms = hot_arms;
      run =
        (fun tiers arms ->
          table ~show:hot_show
            (List.concat_map
               (fun t -> List.map (fun a -> snd (hot_run t a)) arms)
               tiers));
      gates =
        [
          every_arm_completes;
          sigma_agrees;
          gate "adaptive beats static on p95, p99 or bytes in every tier"
            (pairs ~by:[ "tier" ] "adaptive" "static" (fun a s ->
                 getf a "p95_ms" < getf s "p95_ms"
                 || getf a "p99_ms" < getf s "p99_ms"
                 || geti a "bytes" < geti s "bytes"));
          gate "the controller commits migrations in every tier"
            (List.for_all (fun r ->
                 (not (arm_is "adaptive" r)) || geti r "migrations_committed" > 0));
        ];
    }

(* axmlctl place: one tier, both arms, then the adaptive arm's
   migration schedule.  Its chaos plan aims a 150 ms partition at the
   hottest document's owner — the worst place for static placement,
   and exactly the load the controller should route around.  The gates
   judge the controller arm: the static baseline may fail under chaos
   — that failure is the point. *)
let place_chaos seed (hs : Sc.hotspot) =
  let hot_owner =
    match hs.hs_hot with
    | h :: _ -> List.assoc h hs.hs_docs
    | [] -> List.hd hs.hs_owners
  in
  Net.Fault.make
    ~profile:{ Net.Fault.drop = 0.12; duplicate = 0.04; jitter_ms = 2.0 }
    ~events:
      [
        Net.Fault.Partition
          { island = [ hot_owner ];
            window = Net.Fault.window ~from_ms:100.0 ~until_ms:250.0 };
      ]
    ~quiet_after_ms:400.0 ~seed:(seed + 23) ()

let adaptive_only holds rows = List.for_all holds (List.filter (arm_is "adaptive") rows)

let place =
  {
    id = "place"; title = "static vs adaptive placement on one hotspot";
    about = "";
    smoke =
      Some { hot_small with label = "chaos"; faults = Some (place_chaos hot_small.seed) };
    full = hot_small;
    arms = hot_arms;
    run =
      (fun t arms ->
        let runs = List.map (hot_run t) arms in
        table ~show:hot_show (List.map snd runs);
        List.iter
          (fun (ctl, _) ->
            Option.iter
              (fun c ->
                say "\nmigration schedule:\n%s"
                  (Format.asprintf "%a" Placement.pp_schedule c))
              ctl)
          runs);
    gates =
      [
        sigma_agrees;
        gate "the adaptive arm serves every read"
          (adaptive_only (fun r -> getb r "quiescent_and_complete"));
        gate ~slo:true "the adaptive arm abandons no delivery"
          (adaptive_only (fun r -> geti r "abandoned" = 0));
        gate ~slo:true "adaptive p95 within 1.1x the static tail"
          (pairs "adaptive" "static" (fun a s ->
               getf a "p95_ms" <= 1.1 *. getf s "p95_ms"));
      ];
  }

(* --- the overlap workload: E24, cache ----------------------------- *)

(* Subscribers re-issue fixed slates of continuous queries against
   shared source catalogs, round after round, with a rotating quarter
   of the catalogs mutating between rounds; the per-peer semantic cache
   (DESIGN.md §18) off vs on, same shape and seed.  Per-request result
   digests and the final Σ content must be byte-identical across arms. *)
type overlap = {
  sources : int; subscribers : int; queries : int; rounds : int;
  items : int; overlap : float; seed : int;
}

let overlap_run t arms =
  table
    (List.map
       (fun (arm, cache) ->
         let ov =
           Sc.overlap ~sources:t.sources ~subscribers:t.subscribers
             ~queries_per_subscriber:t.queries ~rounds:t.rounds ~overlap_pct:t.overlap
             ~items:t.items ~mutate_fraction:0.25 ~cache ~seed:t.seed ()
         in
         let sys = ov.ov_system in
         let (outcome, events), c = measure (fun () -> System.run sys) in
         let st = System.stats sys in
         let qs = System.qcache_stats sys in
         let lats = !(ov.ov_latencies) in
         let digests = String.concat "," (List.sort String.compare !(ov.ov_digests)) in
         [
           ("arm", str arm); ("events", int events);
           ("completed", int !(ov.ov_completed));
           ("p50_ms", ms (quantile lats 0.50)); ("p95_ms", ms (quantile lats 0.95));
           ("messages", int st.messages); ("bytes", int st.bytes);
           ("completion_ms", ms st.completion_ms); ("cache_hits", int qs.hits);
           ("cache_misses", int qs.misses);
           ("cache_invalidations", int (qs.invalidations + qs.stale_drops));
           ("cache_installs", int qs.installs);
           ("digests", digest (Digest.to_hex (Digest.string digests)));
           ("fingerprint", digest (System.content_fingerprint sys));
           ("wall_s", num "%.3f" c.wall_s);
           ( "quiescent_and_complete",
             flag (outcome = `Quiescent && !(ov.ov_completed) = ov.ov_requests) );
         ])
       arms)
    ~show:
      [ "arm"; "completed"; "p50_ms"; "p95_ms"; "messages"; "bytes"; "completion_ms";
        "cache_hits"; "cache_invalidations"; "quiescent_and_complete" ]

let cache_arms = [ ("cache-off", false); ("cache-on", true) ]

let digests_agree =
  gate "per-request digests are byte-identical across arms" (same "digests")

let cache_on holds rows = List.for_all holds (List.filter (arm_is "cache-on") rows)

let cache_hits ~slo =
  gate ~slo "the cache serves hits" (cache_on (fun r -> geti r "cache_hits" > 0))

let e24 =
  E
    {
      id = "E24"; title = "semantic result cache";
      about =
        "scenario: overlap — subscribers re-issue fixed slates of\n\
         continuous queries against shared source catalogs, round after\n\
         round, with a rotating slice of the catalogs mutating between\n\
         rounds; cache-off vs cache-on (per-peer semantic cache, DESIGN.md\n\
         §18) on the same shape and seed.  The gate is byte-identical\n\
         per-request result digests and Σ content across the two arms,\n\
         with the cached arm strictly cheaper on bytes AND completion";
      smoke =
        Some { sources = 3; subscribers = 8; queries = 3; rounds = 3; items = 12;
               overlap = 0.6; seed = 24 };
      full =
        { sources = 4; subscribers = 24; queries = 4; rounds = 4; items = 24;
          overlap = 0.6; seed = 24 };
      arms = cache_arms; run = overlap_run;
      gates =
        [
          digests_agree;
          sigma_agrees;
          every_arm_completes;
          cache_hits ~slo:false;
          gate "the mutations invalidate entries"
            (cache_on (fun r -> geti r "cache_invalidations" > 0));
          gate "cache-on ships strictly fewer bytes"
            (pairs "cache-on" "cache-off" (fun on off ->
                 geti on "bytes" < geti off "bytes"));
          gate "cache-on completes strictly sooner"
            (pairs "cache-on" "cache-off" (fun on off ->
                 getf on "completion_ms" < getf off "completion_ms"));
        ];
    }

(* axmlctl cache: the SLO judges the cached arm — results identical to
   the baseline, and a cache that is never hit is misconfigured, not
   conservative. *)
let cache =
  let cli =
    { sources = 3; subscribers = 12; queries = 3; rounds = 3; items = 24; overlap = 0.6;
      seed = 11 }
  in
  {
    id = "cache"; title = "semantic result cache off vs on";
    about = "";
    smoke = Some { cli with subscribers = 16; overlap = 0.8 };
    full = cli;
    arms = cache_arms; run = overlap_run;
    gates = [ digests_agree; sigma_agrees; every_arm_completes; cache_hits ~slo:true ];
  }

(* --- chaos: reference plans under a seeded fault plan ------------- *)

(* The three-peer V-series shape: catalog at p2, orders at p3, a
   declarative service at p2, a collector inbox at p3 for the forwarded
   stream.  Each plan runs fault-free (Reliable at the 0/0 defaults,
   XML wire) and again under the fault plan with the tier's transport,
   window knobs and wire: the faulty run must reproduce the plain
   fault-free answer, not a twin of itself. *)
type chaos = {
  seed : int; drop : float; raw : bool; flush_ms : float; ack_delay_ms : float;
  wire : System.wire;
}

let catalog_xml =
  {|<catalog><item k="y"><name>alpha</name></item><item k="n"><name>beta</name></item><item k="y"><name>gamma</name></item></catalog>|}

let chaos_system ?(flush_ms = 0.0) ?(ack_delay_ms = 0.0) ?(wire = System.Xml)
    transport =
  let topo = Net.Topology.full_mesh ~link:Paper.default_link [ p1; p2; p3 ] in
  let sys = System.create ~transport ~wire ~flush_ms ~ack_delay_ms topo in
  System.load_document sys p2 ~name:"cat" ~xml:catalog_xml;
  System.load_document sys p3 ~name:"orders"
    ~xml:
      {|<orders><order item="alpha"/><order item="gamma"/><order item="zeta"/></orders>|};
  System.add_service sys p2
    (Doc.Service.declarative ~name:"find_wanted"
       (Query.Parser.parse_exn
          {|query(1) for $x in $0//item where attr($x, "k") = "y" return <found>{$x}</found>|}));
  let inbox =
    Xml.Tree.element_of_string
      ~gen:(Xml.Node_id.Gen.create ~namespace:"chaos-inbox")
      "inbox" []
  in
  System.add_document sys p3 ~name:"collector" inbox;
  (sys, Option.get (Xml.Tree.id inbox))

let chaos_plans inbox_id =
  let arg = Xml.Node_id.Gen.create ~namespace:"arg" in
  [
    ( "two-site-join",
      Expr.query_at
        (Query.Parser.parse_exn
           {|query(2) for $o in $0//order, $i in $1//item, $n in $i/name where attr($o, "item") = text($n) return <match>{$n}</match>|})
        ~at:p1
        ~args:[ Expr.doc "orders" ~at:"p3"; Expr.doc "cat" ~at:"p2" ] );
    ( "sc-with-forward",
      Expr.sc
        (Doc.Sc.make
           ~forward:[ Doc.Names.Node_ref.make ~node:inbox_id ~peer:p3 ]
           ~provider:(Doc.Names.At p2) ~service:"find_wanted"
           [ [ Xml.Parser.parse_exn ~gen:arg catalog_xml ] ])
        ~at:p1 );
    ("plain-transfer", Expr.send_to_peer p1 (Expr.doc "cat" ~at:"p2"));
  ]

let wires =
  [
    ("xml", System.Xml); ("binary", System.Binary);
    ("binary-strict", System.Binary_strict);
  ]

let chaos_run t _ =
  let fault =
    Net.Fault.make
      ~profile:{ Net.Fault.drop = t.drop; duplicate = t.drop /. 4.0; jitter_ms = 2.0 }
      ~quiet_after_ms:600.0 ~seed:t.seed ()
  in
  let transport = if t.raw then System.Raw else System.Reliable in
  let transport_name = if t.raw then "raw" else "reliable" in
  say
    "fault plan: seed=%d drop=%.2f duplicate=%.2f transport=%s wire=%s \
     flush=%g ack=%g\n\n"
    t.seed t.drop (t.drop /. 4.0) transport_name
    (fst (List.find (fun (_, w) -> w = t.wire) wires))
    t.flush_ms
    t.ack_delay_ms;
  let rows =
    List.map
      (fun (name, plan) ->
        let ref_sys, _ = chaos_system System.Reliable in
        let ref_out = Runtime.Exec.run_to_quiescence ref_sys ~ctx:p1 plan in
        let sys, _ =
          chaos_system ~flush_ms:t.flush_ms ~ack_delay_ms:t.ack_delay_ms ~wire:t.wire
            transport
        in
        System.inject_faults sys fault;
        let out = Runtime.Exec.run_to_quiescence sys ~ctx:p1 plan in
        let rc = System.reliability_counters sys in
        [
          ("plan", str name); ("transport", str transport_name);
          ( "same",
            flag
              (out.finished
              && Xml.Canonical.equal_forest ref_out.results out.results
              && String.equal (System.fingerprint ref_sys) (System.fingerprint sys)) );
          ("finished", flag out.finished); ("drops", int out.stats.drops);
          ("retx", int rc.retransmits); ("dups", int rc.dup_suppressed);
          ("abandoned", int rc.abandoned); ("ref_ms", ms ref_out.elapsed_ms);
          ("fault_ms", ms out.elapsed_ms);
        ])
      (chaos_plans (snd (chaos_system transport)))
  in
  table rows;
  if t.raw then
    say "\n%d/3 plan(s) diverged under the raw transport (ablation; not gated)\n"
      (List.length (List.filter (fun r -> not (getb r "same")) rows))

let chaos : (chaos, unit) entry =
  let cli =
    { seed = 1; drop = 0.2; raw = false; flush_ms = 0.0; ack_delay_ms = 0.0;
      wire = System.Xml }
  in
  {
    id = "chaos"; title = "reference plans under a seeded fault plan";
    about = "";
    smoke = Some { cli with seed = 11; drop = 0.25; flush_ms = 2.0; ack_delay_ms = 8.0 };
    full = cli;
    arms = []; run = chaos_run;
    gates =
      [
        gate "the reliable transport reproduces the fault-free answers"
          (List.for_all (fun r -> gets r "transport" = "raw" || getb r "same"));
        gate ~slo:true "no abandoned delivery or unfinished plan"
          (List.for_all (fun r -> geti r "abandoned" = 0 && getb r "finished"));
      ];
  }

let all =
  Paper.all
  @ [ e17; e18; e19; E e20; e21; e22; e23; e24; E chaos; E place; E cache; E top ]
