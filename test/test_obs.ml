(* Observability layer: span well-formedness, cross-peer correlation,
   metrics determinism, exporter round-trips, run outcomes. *)

open Axml
open Helpers
module System = Runtime.System
module Trace = Obs.Trace
module Metrics = Obs.Metrics

let p1 = peer "p1"
let p2 = peer "p2"
let p3 = peer "p3"

(* Every obs test owns the global collector: start clean, leave clean. *)
let with_obs f =
  Trace.set_enabled true;
  Trace.clear ();
  Metrics.set_enabled Metrics.default true;
  Metrics.reset Metrics.default;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.clear ();
      Metrics.set_enabled Metrics.default false;
      Metrics.reset Metrics.default)
    f

(* The three-peer join scenario: catalogs at p2 and p3, join driven
   from p1 — evaluation has to fan out to both providers. *)
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

(* --- span well-formedness ---------------------------------------- *)

let test_span_wellformed () =
  with_obs (fun () ->
      let out = Runtime.Exec.run_to_quiescence (join_system ()) ~ctx:p1 (join_plan ()) in
      Alcotest.(check bool) "finished" true out.finished;
      let events = Trace.events () in
      Alcotest.(check bool) "recorded something" true (List.length events > 0);
      let ids = Hashtbl.create 64 in
      List.iter
        (fun (e : Trace.event) ->
          if e.kind = Trace.Span then begin
            Alcotest.(check bool) "unique id" false (Hashtbl.mem ids e.id);
            Hashtbl.replace ids e.id e
          end)
        events;
      List.iter
        (fun (e : Trace.event) ->
          if e.kind = Trace.Span then begin
            Alcotest.(check bool)
              (Printf.sprintf "span %d closed" e.id)
              true (e.dur_ms >= 0.0);
            match e.parent with
            | None -> ()
            | Some pid -> (
                match Hashtbl.find_opt ids pid with
                | None -> Alcotest.failf "span %d: unknown parent %d" e.id pid
                | Some parent ->
                    Alcotest.(check bool)
                      (Printf.sprintf "parent %d starts before child %d" pid e.id)
                      true
                      (parent.ts_ms <= e.ts_ms +. 1e-9))
          end)
        events)

let test_cross_peer_correlation () =
  with_obs (fun () ->
      let out = Runtime.Exec.run_to_quiescence (join_system ()) ~ctx:p1 (join_plan ()) in
      Alcotest.(check bool) "finished" true out.finished;
      let by_corr = Hashtbl.create 8 in
      List.iter
        (fun (e : Trace.event) ->
          (* The query engine's index-attribution instants live on a
             ["query"] pseudo-track, not a peer track. *)
          if e.corr <> 0 && e.peer <> "query" then begin
            let ps = Option.value ~default:[] (Hashtbl.find_opt by_corr e.corr) in
            if not (List.mem e.peer ps) then
              Hashtbl.replace by_corr e.corr (e.peer :: ps)
          end)
        (Trace.events ());
      Alcotest.(check bool) "some correlated events" true
        (Hashtbl.length by_corr > 0);
      (* The computation is driven from p1 and must visit both
         providers: one correlation id covers all three peers. *)
      let widest =
        Hashtbl.fold (fun _ ps acc -> max acc (List.length ps)) by_corr 0
      in
      Alcotest.(check int) "one corr id spans all three peers" 3 widest)

let test_with_corr_restores () =
  let c = Trace.fresh_corr () in
  Alcotest.(check int) "outside" 0 (Trace.current_corr ());
  Trace.with_corr c (fun () ->
      Alcotest.(check int) "inside" c (Trace.current_corr ());
      Trace.with_corr (c + 1) (fun () ->
          Alcotest.(check int) "nested" (c + 1) (Trace.current_corr ()));
      Alcotest.(check int) "restored after nest" c (Trace.current_corr ()));
  Alcotest.(check int) "restored" 0 (Trace.current_corr ());
  (match Trace.with_corr c (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "exception swallowed");
  Alcotest.(check int) "restored on exception" 0 (Trace.current_corr ())

let test_disabled_records_nothing () =
  Trace.set_enabled false;
  Trace.clear ();
  let id =
    Trace.begin_span ~cat:"peer" ~peer:"p1" ~ts:0.0 "ghost"
  in
  Alcotest.(check int) "null span id" Trace.null id;
  Trace.end_span id ~ts:1.0;
  Trace.complete ~cat:"net" ~peer:"p1" ~ts:0.0 ~dur_ms:1.0 "ghost";
  Trace.instant ~cat:"sim" ~peer:"p1" ~ts:0.0 "ghost";
  Alcotest.(check int) "no events" 0 (Trace.count ());
  Metrics.set_enabled Metrics.default false;
  Metrics.incr Metrics.default ~peer:"p1" ~subsystem:"sim" "events";
  Alcotest.(check int) "no metrics" 0
    (List.length (Metrics.snapshot Metrics.default))

(* --- metrics ------------------------------------------------------ *)

let test_metrics_deterministic () =
  let run () =
    Trace.clear ();
    Metrics.reset Metrics.default;
    ignore (Runtime.Exec.run_to_quiescence (join_system ()) ~ctx:p1 (join_plan ()));
    Metrics.snapshot Metrics.default
  in
  with_obs (fun () ->
      let a = run () in
      let b = run () in
      Alcotest.(check bool) "non-empty" true (List.length a > 0);
      Alcotest.(check bool) "identical snapshots" true (a = b))

(* --- one store per count ------------------------------------------ *)

let transport_counters : (string * (System.reliability_counters -> int)) list =
  [
    ("retransmits", fun r -> r.retransmits);
    ("dup_suppressed", fun r -> r.dup_suppressed);
    ("abandoned", fun r -> r.abandoned);
    ("acks_sent", fun r -> r.acks_sent);
    ("batches_sent", fun r -> r.batches_sent);
    ("batched_messages", fun r -> r.batched_messages);
    ("piggybacked_acks", fun r -> r.piggybacked_acks);
    ("delayed_acks", fun r -> r.delayed_acks);
  ]

(* Each event is counted once, in an always-on store: frames, bytes and
   drops in Stats, transport events in the Reliable transport's
   per-peer counts, cache probes in each Qcache.  The per-peer views add
   up to the totals, the [xfer] spans agree with Stats per sending
   peer, and the Metrics registry holds no copy of any of them.  The
   runs reach every counter: the V-series plans under the window's
   flush/ack knobs and a chaos plan, plus a fetch from a crashed peer
   that the sender gives up on. *)
let test_one_store () =
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let run ?fault ?crash plan =
    let sys, _ =
      Test_rules_exec.build_system ~transport:System.Reliable ~flush_ms:2.0
        ~ack_delay_ms:8.0 ()
    in
    System.enable_qcache sys;
    Option.iter (System.inject_faults sys) fault;
    Option.iter (System.crash sys) crash;
    Trace.clear ();
    let out = Runtime.Exec.run_to_quiescence sys ~ctx:p1 plan in
    (sys, out.stats, xfers ())
  in
  let chaos seed =
    Net.Fault.make
      ~profile:{ Net.Fault.drop = 0.2; duplicate = 0.1; jitter_ms = 2.0 }
      ~quiet_after_ms:400.0 ~seed ()
  in
  with_obs @@ fun () ->
  let runs =
    List.mapi
      (fun i (_, plan) -> run ~fault:(chaos i) plan)
      (Test_rules_exec.base_plans (snd (Test_rules_exec.build_system ())))
    @ [ run ~crash:p3 (Algebra.Expr.doc "orders" ~at:"p3") ]
  in
  List.iter
    (fun (sys, (st : Net.Stats.snapshot), xfers) ->
      let total = System.reliability_counters sys in
      let by_peer = List.map snd (System.reliability_by_peer sys) in
      List.iter
        (fun (name, get) ->
          Alcotest.(check int) ("per-peer " ^ name ^ " sum to the total")
            (get total) (sum get by_peer))
        transport_counters;
      let drops = Net.Stats.drops_by_peer (Net.Sim.stats (System.sim sys)) in
      Alcotest.(check int) "per-peer drops sum to Stats.drops" st.drops
        (sum snd drops);
      Alcotest.(check int) "per_link frames sum to messages" st.messages
        (sum (fun (_, (m, _)) -> m) st.per_link);
      Alcotest.(check int) "per_link bytes sum to bytes" st.bytes
        (sum (fun (_, (_, b)) -> b) st.per_link);
      List.iter
        (fun p ->
          Alcotest.(check int) "xfer spans carry what Stats charged"
            (snd (Axml_bench.Paper.stats_sent st p))
            (Axml_bench.Paper.traced_sent xfers p))
        [ p1; p2; p3 ])
    runs;
  let somewhere name n =
    Alcotest.(check bool) (name ^ " counted in some run") true
      (List.exists (fun r -> n r > 0) runs)
  in
  List.iter
    (fun (name, get) ->
      somewhere name (fun (sys, _, _) -> get (System.reliability_counters sys)))
    transport_counters;
  somewhere "drops" (fun (_, (st : Net.Stats.snapshot), _) -> st.drops);
  somewhere "cache probes" (fun (sys, _, _) ->
      let q = System.qcache_stats sys in
      q.hits + q.misses);
  Alcotest.(check (list string)) "no net/* or qcache/* metric" []
    (List.filter_map
       (fun (e : Metrics.entry) ->
         if e.subsystem = "net" || e.subsystem = "qcache" then
           Some (e.subsystem ^ "/" ^ e.name)
         else None)
       (Metrics.snapshot Metrics.default))

let test_metrics_kinds () =
  let m = Metrics.create () in
  Metrics.set_enabled m true;
  Metrics.incr m ~peer:"a" ~subsystem:"s" "c";
  Metrics.incr m ~peer:"a" ~by:4 ~subsystem:"s" "c";
  Alcotest.(check int) "counter" 5 (Metrics.counter_value m ~peer:"a" ~subsystem:"s" "c");
  Metrics.gauge_max m ~peer:"a" ~subsystem:"s" "g" 2.0;
  Metrics.gauge_max m ~peer:"a" ~subsystem:"s" "g" 7.0;
  Metrics.gauge_max m ~peer:"a" ~subsystem:"s" "g" 3.0;
  Metrics.observe m ~peer:"a" ~subsystem:"s" "h" 0.5;
  Metrics.observe m ~peer:"b" ~subsystem:"s" "h" 100.0;
  (match Metrics.snapshot m with
  | [ e1; e2; e3; e4 ] ->
      (* Deterministic order: sorted by (peer, subsystem, name). *)
      Alcotest.(check string) "first" "c" e1.Metrics.name;
      Alcotest.(check string) "second" "g" e2.Metrics.name;
      (match e2.Metrics.sample with
      | Metrics.Value { max_value; _ } ->
          Alcotest.(check (float 1e-9)) "high-water" 7.0 max_value
      | _ -> Alcotest.fail "gauge expected");
      (match (e3.Metrics.sample, e4.Metrics.sample) with
      | Metrics.Dist { count = ca; _ }, Metrics.Dist { count = cb; _ } ->
          Alcotest.(check int) "hist count a" 1 ca;
          Alcotest.(check int) "hist count b" 1 cb
      | _ -> Alcotest.fail "histograms expected")
  | es -> Alcotest.failf "4 entries expected, got %d" (List.length es));
  Alcotest.(check (float 1e-9)) "total over peers" 100.5
    (Metrics.total m ~subsystem:"s" "h")

(* --- exporters ---------------------------------------------------- *)

(* A deliberately small JSON reader — just enough to check that the
   exporters emit well-formed JSON and preserve the event structure. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else raise (Bad (Printf.sprintf "expected %c at %d" c !pos))
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then raise (Bad "unterminated string");
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            (if !pos >= n then raise (Bad "bad escape");
             match s.[!pos] with
             | '"' -> Buffer.add_char buf '"'; incr pos
             | '\\' -> Buffer.add_char buf '\\'; incr pos
             | '/' -> Buffer.add_char buf '/'; incr pos
             | 'n' -> Buffer.add_char buf '\n'; incr pos
             | 't' -> Buffer.add_char buf '\t'; incr pos
             | 'r' -> Buffer.add_char buf '\r'; incr pos
             | 'b' -> Buffer.add_char buf '\b'; incr pos
             | 'f' -> Buffer.add_char buf '\012'; incr pos
             | 'u' ->
                 if !pos + 4 >= n then raise (Bad "bad \\u");
                 let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
                 (* The exporters escape whole bytes as their Latin-1
                    code points (0x00-0xFF). *)
                 Buffer.add_char buf (Char.chr (code land 0xFF));
                 pos := !pos + 5
             | c -> raise (Bad (Printf.sprintf "escape %c" c)));
            go ()
        | c -> Buffer.add_char buf c; incr pos; go ()
      in
      go ();
      Buffer.contents buf
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then (incr pos; Obj [])
          else
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' -> incr pos; members ((k, v) :: acc)
              | Some '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
              | _ -> raise (Bad "object")
            in
            members []
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then (incr pos; Arr [])
          else
            let rec elements acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' -> incr pos; elements (v :: acc)
              | Some ']' -> incr pos; Arr (List.rev (v :: acc))
              | _ -> raise (Bad "array")
            in
            elements []
      | Some 't' -> pos := !pos + 4; Bool true
      | Some 'f' -> pos := !pos + 5; Bool false
      | Some 'n' -> pos := !pos + 4; Null
      | Some _ ->
          let start = !pos in
          while
            !pos < n
            && (match s.[!pos] with
               | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
               | _ -> false)
          do
            incr pos
          done;
          if !pos = start then raise (Bad "value");
          Num (float_of_string (String.sub s start (!pos - start)))
      | None -> raise (Bad "eof")
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then raise (Bad "trailing garbage");
    v

  let member k = function
    | Obj kvs -> List.assoc_opt k kvs
    | _ -> None
end

let traced_events () =
  with_obs (fun () ->
      ignore (Runtime.Exec.run_to_quiescence (join_system ()) ~ctx:p1 (join_plan ()));
      Trace.events ())

let test_chrome_roundtrip () =
  let events = traced_events () in
  let json = Json.parse (Obs.Exporter.chrome_trace events) in
  let entries =
    match Json.member "traceEvents" json with
    | Some (Json.Arr es) -> es
    | _ -> Alcotest.fail "traceEvents array expected"
  in
  let spans, meta =
    List.partition
      (fun e ->
        match Json.member "ph" e with
        | Some (Json.Str ("X" | "i")) -> true
        | Some (Json.Str "M") -> false
        | _ -> Alcotest.fail "unexpected phase")
      entries
  in
  Alcotest.(check int) "every event exported" (List.length events)
    (List.length spans);
  (* Metadata names one process per distinct peer. *)
  let peers =
    List.sort_uniq compare (List.map (fun (e : Trace.event) -> e.peer) events)
  in
  Alcotest.(check int) "one process_name per peer" (List.length peers)
    (List.length meta);
  (* Timestamps are microseconds: the first X event's ts must be its
     source event's ts_ms x 1000. *)
  let x_events =
    List.filter
      (fun e -> Json.member "ph" e = Some (Json.Str "X"))
      spans
  in
  let first_span =
    List.find (fun (e : Trace.event) -> e.kind = Trace.Span) events
  in
  (match x_events with
  | first :: _ ->
      (match Json.member "ts" first with
      | Some (Json.Num ts) ->
          Alcotest.(check (float 0.5)) "microsecond timestamps"
            (first_span.ts_ms *. 1000.0) ts
      | _ -> Alcotest.fail "ts expected")
  | [] -> Alcotest.fail "no X events")

let test_jsonl_roundtrip () =
  let events = traced_events () in
  let lines =
    Obs.Exporter.jsonl events
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check int) "one line per event" (List.length events)
    (List.length lines);
  List.iter2
    (fun line (e : Trace.event) ->
      let j = Json.parse line in
      (match Json.member "name" j with
      | Some (Json.Str n) -> Alcotest.(check string) "name" e.name n
      | _ -> Alcotest.fail "name expected");
      (match Json.member "corr" j with
      | Some (Json.Num c) -> Alcotest.(check int) "corr" e.corr (int_of_float c)
      | _ -> Alcotest.fail "corr expected"))
    lines events

let test_metrics_json_parses () =
  with_obs (fun () ->
      ignore (Runtime.Exec.run_to_quiescence (join_system ()) ~ctx:p1 (join_plan ()));
      let j = Json.parse (Obs.Exporter.metrics_json Metrics.default) in
      match j with
      | Json.Arr entries ->
          Alcotest.(check int) "all entries exported"
            (List.length (Metrics.snapshot Metrics.default))
            (List.length entries)
      | _ -> Alcotest.fail "array expected")

(* --- run outcomes and Stats loopback ----------------------------- *)

let test_run_outcomes () =
  let sys = join_system () in
  let out = Runtime.Exec.run_to_quiescence sys ~ctx:p1 (join_plan ()) in
  Alcotest.(check bool) "quiescent" true (out.termination = `Quiescent);
  Alcotest.(check bool) "events counted" true (out.events > 0);
  let sys2 = join_system () in
  let out2 = Runtime.Exec.run_to_quiescence ~max_events:2 sys2 ~ctx:p1 (join_plan ()) in
  Alcotest.(check bool) "budget exhausted" true
    (out2.termination = `Budget_exhausted);
  Alcotest.(check bool) "truncated" true (not out2.finished)

(* Loopback deliveries are free on the wire but causally real: rule
   (12) intermediary elimination turns remote hops into local ones, and
   the trace must show them rather than let them disappear. *)
let test_stats_loopback_trace () =
  let a = peer "a" and b = peer "b" in
  let sim = Net.Sim.create (mesh [ "a"; "b" ]) in
  List.iter (fun p -> Net.Sim.set_handler sim p (fun ~src:_ () -> ())) [ a; b ];
  with_tracing @@ fun () ->
  ignore (Net.Sim.send ~note:"remote" sim ~src:a ~dst:b ~bytes:10 ());
  ignore (Net.Sim.send ~note:"loop" sim ~src:a ~dst:a ~bytes:10 ());
  ignore (Net.Sim.send ~note:"loop" sim ~src:b ~dst:b ~bytes:5 ());
  ignore (Net.Sim.run sim);
  Alcotest.(check (list string))
    "every transmission has its span, loopbacks included"
    [ "a->b 10 remote"; "a->a 10 loop"; "b->b 5 loop" ]
    (List.map
       (fun (x : Net.Sim.xfer) ->
         Format.asprintf "%a->%a %d %s" Net.Peer_id.pp x.src Net.Peer_id.pp
           x.dst x.bytes x.note)
       (xfers ()));
  (* Local messages still never count toward bytes. *)
  let snap = Net.Stats.snapshot (Net.Sim.stats sim) in
  Alcotest.(check int) "bytes remote only" 10 snap.bytes;
  Alcotest.(check int) "local counted separately" 2 snap.local_messages

let suite =
  [
    Alcotest.test_case "span well-formedness" `Quick test_span_wellformed;
    Alcotest.test_case "cross-peer correlation" `Quick test_cross_peer_correlation;
    Alcotest.test_case "with_corr restores" `Quick test_with_corr_restores;
    Alcotest.test_case "disabled records nothing" `Quick test_disabled_records_nothing;
    Alcotest.test_case "metrics deterministic" `Quick test_metrics_deterministic;
    Alcotest.test_case "one store, sums agree" `Quick test_one_store;
    Alcotest.test_case "metric kinds" `Quick test_metrics_kinds;
    Alcotest.test_case "chrome exporter round-trip" `Quick test_chrome_roundtrip;
    Alcotest.test_case "jsonl exporter round-trip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "metrics json parses" `Quick test_metrics_json_parses;
    Alcotest.test_case "run outcomes" `Quick test_run_outcomes;
    Alcotest.test_case "stats loopback trace" `Quick test_stats_loopback_trace;
  ]
