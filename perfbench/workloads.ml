(* The four benchmark workloads.  Each one builds its system from the
   seed through the program's public API and runs closed-loop clients
   in simulated time; DECISIONS.md records why each exists and which
   layers it loads.  The shapes are fixed here so every commit runs the
   same work. *)

open Axml
module System = Runtime.System
module Sc = Workload.Scenarios

type outcome = {
  attempted : int;
  completed : int;
  events : int;  (** Simulator events processed. *)
  frames : int;  (** [Stats.messages]: physical frames. *)
  logical : int;  (** [Stats.payload_messages]: logical messages. *)
  bytes : int;  (** [Stats.bytes]: network bytes charged. *)
  xfer_ms : float;  (** Simulated link time of every remote frame. *)
  completion_ms : float;  (** Simulated time to finish every request. *)
  latencies : float list;
      (** Simulated ms per completed request; [] where the scenario
          records none. *)
  digest : string;  (** The outputs the reference check compares. *)
  problems : string list;  (** Per-run checks that failed. *)
}

type instance = {
  system : System.t;
  run : unit -> unit;  (** The timed run phase. *)
  observe : unit -> outcome;  (** After the run, outside the timing. *)
  layers : unit -> (string * float) list;
      (** Workload-specific layer counters, read after [observe]. *)
}

type t = {
  name : string;
  instances : int;
      (** Scenario instances per rep, each from its own seed, so that the
          seeded choices of one instance do not decide a run's figures. *)
  setup : seed:int -> instance;  (** The timed set-up phase. *)
  reference : (seed:int -> string) option;
      (** The digest every run must reproduce, built outside the timed
          phases from an independent arm of the same shape and seed. *)
}

let fdiv a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Instance [i]'s seed; distinct run seeds never share an instance. *)
let instance_seed (w : t) ~seed i = (seed * w.instances) + i

(* One rep's instances taken together: completion is their mean, the
   rest are sums. *)
let merge outcomes =
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  let sumf f = List.fold_left (fun acc o -> acc +. f o) 0.0 outcomes in
  {
    attempted = sum (fun o -> o.attempted);
    completed = sum (fun o -> o.completed);
    events = sum (fun o -> o.events);
    frames = sum (fun o -> o.frames);
    logical = sum (fun o -> o.logical);
    bytes = sum (fun o -> o.bytes);
    xfer_ms = sumf (fun o -> o.xfer_ms);
    completion_ms = sumf (fun o -> o.completion_ms) /. float_of_int (List.length outcomes);
    latencies = List.concat_map (fun o -> o.latencies) outcomes;
    digest = String.concat "+" (List.map (fun o -> o.digest) outcomes);
    problems = List.concat_map (fun o -> o.problems) outcomes;
  }

(* Untraced runs make the program's own single [System.run] call.
   Traced runs drive the public [Sim.run ~until_ms] in fixed
   simulated-time slices, one span each, so CPU and allocation deltas
   are attributed over simulated time; each slice span also records the
   events it processed and the cumulative frames and bytes. *)
let simulate sys ~budget ~slice_ms =
  if not !Spans.enabled then System.run ~max_events:budget sys
  else begin
    let sim = System.sim sys in
    let slice_counters processed () =
      let st = System.stats sys in
      [
        ("events", float_of_int processed);
        ("sim_ms", Net.Sim.now sim);
        ("frames", float_of_int st.Net.Stats.messages);
        ("bytes", float_of_int st.Net.Stats.bytes);
      ]
    in
    let rec go k events =
      if Net.Sim.pending sim = 0 then (`Quiescent, events)
      else if events >= budget then (`Budget_exhausted, events)
      else
        let processed = ref 0 in
        let outcome, n =
          Spans.with_span "net.run" ~counters:(fun () -> slice_counters !processed ())
            (fun () ->
              let ((_, n) as r) =
                Net.Sim.run
                  ~until_ms:(float_of_int (k + 1) *. slice_ms)
                  ~max_events:(budget - events) sim
              in
              processed := n;
              r)
        in
        match outcome with
        | `Budget_exhausted -> (`Budget_exhausted, events + n)
        | `Quiescent -> go (k + 1) (events + n)
    in
    go 0 0
  end

let quiescent_problem = function
  | `Quiescent -> []
  | `Budget_exhausted -> [ "the run exhausted its event budget" ]

(* The link model is affine (latency plus bytes over bandwidth), so the
   per-link frame and byte counts give the link time exactly, as the
   program's [xfer] trace spans would, without turning on [Obs.Trace]:
   trace correlation ids ride in the binary wire's envelopes and would
   change the bytes charged. *)
let xfer_ms sys (st : Net.Stats.snapshot) =
  let topo = Net.Sim.topology (System.sim sys) in
  List.fold_left
    (fun acc ((src, dst), (frames, bytes)) ->
      let l = Net.Topology.link topo ~src ~dst in
      acc
      +. (float_of_int frames *. l.Net.Link.latency_ms)
      +. (float_of_int bytes /. l.Net.Link.bandwidth_bytes_per_ms))
    0.0 st.Net.Stats.per_link

let sim_outcome sys ~attempted ~completed ~events ~latencies ~digest ~problems
    =
  let st = System.stats sys in
  {
    attempted;
    completed;
    events;
    frames = st.Net.Stats.messages;
    logical = st.Net.Stats.payload_messages;
    bytes = st.Net.Stats.bytes;
    xfer_ms = xfer_ms sys st;
    completion_ms = st.Net.Stats.completion_ms;
    latencies;
    digest;
    problems;
  }

(* --- flash_crowd ------------------------------------------------- *)

(* E20/E22's top tier: 10^3 peers in closed fetch loops on a
   front-loaded arrival ramp, over batched Reliable transport and the
   binary wire.  No query, planner, cache or store writes. *)
let flash_crowd =
  let mirrors = 24 and subscribers = 975 and requests_per_subscriber = 24 in
  let budget =
    (16 * subscribers * requests_per_subscriber)
    + (40 * (1 + mirrors + subscribers))
    + 10_000
  in
  let setup ~seed =
    let fc =
      Spans.with_span "workload.build" (fun () ->
          Sc.flash_crowd ~mirrors ~subscribers ~requests_per_subscriber
            ~transport:System.Reliable ~wire:System.Binary ~flush_ms:2.0
            ~ack_delay_ms:8.0 ~seed ())
    in
    let sys = fc.Sc.fc_system in
    let result = ref (`Quiescent, 0) in
    {
      system = sys;
      run = (fun () -> result := simulate sys ~budget ~slice_ms:25.0);
      observe =
        (fun () ->
          let termination, events = !result in
          let attempted = fc.Sc.fc_requests
          and completed = !(fc.Sc.fc_completed)
          and unserved = !(fc.Sc.fc_unserved) in
          let problems =
            quiescent_problem termination
            @ (if completed = attempted then []
               else
                 [ Printf.sprintf "%d of %d requests completed" completed attempted ])
            @
            if unserved = 0 then []
            else [ Printf.sprintf "%d requests unserved" unserved ]
          in
          sim_outcome sys ~attempted ~completed ~events ~latencies:[]
            ~digest:(System.fingerprint sys) ~problems);
      layers = (fun () -> []);
    }
  in
  { name = "flash_crowd"; instances = 1; setup; reference = None }

(* --- hotspot ----------------------------------------------------- *)

(* E23's adaptive arm: load-steered picks and the placement controller
   on 10 ms telemetry windows, over unbatched Reliable and the binary
   wire, with a bounded number of appends into the hot documents spread
   over the read phase. *)
let hotspot_shape ~adaptive ~seed =
  Sc.hotspot ~owners:6 ~spares:4 ~readers:32 ~docs:40 ~hot_fraction:0.1
    ~hot_share:0.9 ~reads_per_reader:50 ~appends:36 ~append_every_ms:100.0
    ~payload_bytes:2048 ~think_ms:2.0 ~arrival_window_ms:100.0
    ~steered:adaptive ~wire:System.Binary ~cpu_ms_per_kb:3.0 ~seed ()

let hotspot_budget = 2_000_000

let hotspot =
  let setup ~seed =
    let ts = Obs.Timeseries.default in
    (* [set_window] keeps the series when the width is unchanged; an
       earlier rep's windows would steer this rep's reads. *)
    Obs.Timeseries.set_window ts 10.0;
    Obs.Timeseries.reset ts;
    Obs.Timeseries.set_enabled ts true;
    let hs =
      Spans.with_span "workload.build" (fun () ->
          hotspot_shape ~adaptive:true ~seed)
    in
    let sys = hs.Sc.hs_system in
    let storage = hs.Sc.hs_owners @ hs.Sc.hs_spares in
    let ctl =
      Spans.with_span "peer.placement.enable" (fun () ->
          Runtime.Placement.enable
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
    in
    let result = ref (`Quiescent, 0) in
    {
      system = sys;
      run =
        (fun () ->
          result := simulate sys ~budget:hotspot_budget ~slice_ms:25.0;
          Obs.Timeseries.set_enabled ts false);
      observe =
        (fun () ->
          let termination, events = !result in
          let attempted = hs.Sc.hs_requests
          and completed = !(hs.Sc.hs_completed) in
          let problems =
            quiescent_problem termination
            @
            if completed = attempted && !(hs.Sc.hs_unserved) = 0 then []
            else
              [
                Printf.sprintf "%d of %d reads served, %d unserved" completed
                  attempted !(hs.Sc.hs_unserved);
              ]
          in
          sim_outcome sys ~attempted ~completed ~events
            ~latencies:!(hs.Sc.hs_latencies)
            ~digest:(System.content_fingerprint sys) ~problems);
      layers =
        (fun () ->
          let s = Runtime.Placement.stats ctl in
          [
            ("peer.placement.ticks", float_of_int s.Runtime.Placement.s_ticks);
            ("peer.placement.committed", float_of_int s.Runtime.Placement.s_committed);
            ("peer.placement.aborted", float_of_int s.Runtime.Placement.s_aborted);
          ]);
    }
  in
  (* E23's gate: static placement of the same shape reaches the same
     Σ content. *)
  let reference ~seed =
    let hs = hotspot_shape ~adaptive:false ~seed in
    ignore (System.run ~max_events:hotspot_budget hs.Sc.hs_system);
    System.content_fingerprint hs.Sc.hs_system
  in
  { name = "hotspot"; instances = 4; setup; reference = Some reference }

(* --- overlap ----------------------------------------------------- *)

(* E24's cache-on arm: 64 subscribers repeat slates of 8 overlapping
   queries over 200-item catalogs for 4 rounds, a quarter of the
   catalogs mutating between rounds. *)
let overlap_shape ~cache ~seed =
  Sc.overlap ~sources:4 ~subscribers:64 ~queries_per_subscriber:8 ~rounds:4
    ~overlap_pct:0.6 ~items:200 ~mutate_fraction:0.25 ~cache ~seed ()

let overlap_budget = 2_000_000

let sorted_digests ov =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (List.sort String.compare !(ov.Sc.ov_digests))))

let overlap =
  let setup ~seed =
    let ov =
      Spans.with_span "workload.build" (fun () -> overlap_shape ~cache:true ~seed)
    in
    let sys = ov.Sc.ov_system in
    let result = ref (`Quiescent, 0) in
    {
      system = sys;
      run = (fun () -> result := simulate sys ~budget:overlap_budget ~slice_ms:10.0);
      observe =
        (fun () ->
          let termination, events = !result in
          let attempted = ov.Sc.ov_requests
          and completed = !(ov.Sc.ov_completed) in
          let problems =
            quiescent_problem termination
            @
            if completed = attempted then []
            else
              [ Printf.sprintf "%d of %d queries completed" completed attempted ]
          in
          sim_outcome sys ~attempted ~completed ~events
            ~latencies:!(ov.Sc.ov_latencies) ~digest:(sorted_digests ov)
            ~problems);
      layers = (fun () -> []);
    }
  in
  (* E24's gate: the cache-off arm of the same shape and seed returns
     the same per-request digests. *)
  let reference ~seed =
    let ov = overlap_shape ~cache:false ~seed in
    ignore (System.run ~max_events:overlap_budget ov.Sc.ov_system);
    sorted_digests ov
  in
  { name = "overlap"; instances = 4; setup; reference = Some reference }

(* --- xmark_join -------------------------------------------------- *)

(* E14 at ten times the default item and auction counts: auctions on a
   hub, each region's items on its own peer, in a star.  Each request
   joins the auctions to one region's items, planned over the live
   cost oracles and then executed — [Exec.run_optimized]'s path with
   the cache off. *)
let join_query =
  Query.Parser.parse_exn
    {|query(2) for $a in $0//auction, $i in $1//item, $n in $i/name, $c in $a/current
      where attr($a, "item") = attr($i, "id")
      return <sale>{$n}<price>{text($c)}</price></sale>|}

let hub = Net.Peer_id.of_string "hub"
let region_peers = List.map Net.Peer_id.of_string Workload.Xmark.regions
let xmark_requests = 3
let xmark_budget = 1_000_000

let xmark_scale =
  {
    Workload.Xmark.default_scale with
    people = 200;
    items_per_region = 400;
    auctions = 600;
    description_bytes = 960;
  }

let region_of_request i = List.nth region_peers (i mod List.length region_peers)

let join_expr region =
  Algebra.Expr.query_at join_query ~at:hub
    ~args:
      [
        Algebra.Expr.doc "auctions" ~at:(Net.Peer_id.to_string hub);
        Algebra.Expr.doc "items" ~at:(Net.Peer_id.to_string region);
      ]

let xmark_system ~seed =
  let sys =
    Spans.with_span "peer.system.create" (fun () ->
        System.create ~transport:System.Reliable ~wire:System.Binary
          (Net.Topology.star ~hub
             ~spoke_link:
               (Net.Link.make ~latency_ms:8.0 ~bandwidth_bytes_per_ms:120.0)
             (hub :: region_peers)))
  in
  let docs =
    Spans.with_span "workload.build" (fun () ->
        let gen = System.gen_of sys hub in
        let site =
          Workload.Xmark.site ~scale:xmark_scale ~gen
            ~rng:(Workload.Rng.create ~seed) ()
        in
        let part peer path =
          Xml.Tree.copy ~gen:(System.gen_of sys peer)
            (List.hd (Xml.Path.select (Xml.Path.of_string path) site))
        in
        (hub, "auctions", part hub "/auctions")
        :: List.map2
             (fun peer region -> (peer, "items", part peer ("/regions/" ^ region)))
             region_peers Workload.Xmark.regions)
  in
  Spans.with_span "peer.system.add_document" (fun () ->
      List.iter (fun (peer, name, tree) -> System.add_document sys peer ~name tree) docs);
  sys

(* Order-insensitive digest of one result forest: the multiset of its
   trees' canonical forms. *)
let forest_digest forest =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.sort String.compare (List.map Xml.Canonical.fingerprint forest))))

let xmark_digest per_request = Digest.to_hex (Digest.string (String.concat "\n" per_request))

(* The join alone, timed by the benchmark: the compiled engine over one
   region's two stored documents, median of three. *)
let join_probe sys =
  Spans.with_span "query.join_probe" (fun () ->
      let root peer name =
        Doc.Document.root (Option.get (System.find_document sys peer name))
      in
      let inputs = [ [ root hub "auctions" ]; [ root (List.hd region_peers) "items" ] ] in
      let gen = Xml.Node_id.Gen.create ~namespace:"perfbench-probe" in
      1000.0
      *. Measure.median
           (List.init 3 (fun _ ->
                snd (Measure.cpu (fun () -> Query.Compile.eval ~gen join_query inputs)))))

type xmark_request = {
  planned : Algebra.Planner.result;
  out : Runtime.Exec.outcome;
}

let xmark_join =
  let setup ~seed =
    let sys = xmark_system ~seed in
    let done_ = ref [] in
    let run () =
      for i = 0 to xmark_requests - 1 do
        let expr = join_expr (region_of_request i) in
        let planned = ref None and out = ref None in
        let plan_counters () =
          match !planned with
          | None -> []
          | Some (p : Algebra.Planner.result) ->
              [
                ("explored", float_of_int p.search.Algebra.Optimizer.explored);
                ("equal_calls", float_of_int p.equal_calls);
                ("estimated_bytes", float_of_int p.cost.Algebra.Cost.bytes);
              ]
        in
        let exec_counters () =
          match !out with
          | None -> []
          | Some (o : Runtime.Exec.outcome) ->
              [
                ("events", float_of_int o.events);
                ("frames", float_of_int o.stats.Net.Stats.messages);
                ("bytes", float_of_int o.stats.Net.Stats.bytes);
                ("elapsed_sim_ms", o.elapsed_ms);
              ]
        in
        Spans.with_span ~request:i ~counters:plan_counters "algebra.planner.plan"
          (fun () ->
            planned :=
              Some
                (Algebra.Planner.plan ~env:(System.cost_env sys) ~ctx:hub
                   (Algebra.Optimizer.Best_first { max_expansions = 32 })
                   expr));
        let planned = Option.get !planned in
        Spans.with_span ~request:i ~counters:exec_counters "peer.exec.run_to_quiescence"
          (fun () ->
            out :=
              Some
                (Runtime.Exec.run_to_quiescence ~max_events:xmark_budget sys ~ctx:hub
                   planned.Algebra.Planner.plan));
        done_ := { planned; out = Option.get !out } :: !done_
      done
    in
    let observe () =
      let reqs = List.rev !done_ in
      let ok r = r.out.Runtime.Exec.finished && r.out.Runtime.Exec.termination = `Quiescent in
      (* [run_to_quiescence] resets the transfer counters per request,
         so the run's totals are sums over requests. *)
      let sum f = List.fold_left (fun acc r -> acc + f r.out) 0 reqs in
      let stats f = sum (fun o -> f o.Runtime.Exec.stats) in
      let latencies = List.map (fun r -> r.out.Runtime.Exec.elapsed_ms) reqs in
      let completed = List.length (List.filter ok reqs) in
      {
        attempted = xmark_requests;
        completed;
        events = sum (fun o -> o.Runtime.Exec.events);
        frames = stats (fun s -> s.Net.Stats.messages);
        logical = stats (fun s -> s.Net.Stats.payload_messages);
        bytes = stats (fun s -> s.Net.Stats.bytes);
        xfer_ms =
          List.fold_left
            (fun acc r -> acc +. xfer_ms sys r.out.Runtime.Exec.stats)
            0.0 reqs;
        completion_ms = List.fold_left ( +. ) 0.0 latencies;
        latencies;
        digest =
          xmark_digest (List.map (fun r -> forest_digest r.out.Runtime.Exec.results) reqs);
        problems =
          (if completed = xmark_requests then []
           else
             [ Printf.sprintf "%d of %d joins finished quiescent" completed xmark_requests ]);
      }
    in
    let layers () =
      let reqs = !done_ in
      let n = List.length reqs in
      let sumi f = List.fold_left (fun acc r -> acc + f r) 0 reqs in
      let estimated = sumi (fun r -> r.planned.Algebra.Planner.cost.Algebra.Cost.bytes) in
      let observed = sumi (fun r -> r.out.Runtime.Exec.stats.Net.Stats.bytes) in
      [
        ( "algebra.planner.explored_per_request",
          fdiv (sumi (fun r -> r.planned.Algebra.Planner.search.Algebra.Optimizer.explored)) n );
        ( "algebra.planner.equal_calls_per_request",
          fdiv (sumi (fun r -> r.planned.Algebra.Planner.equal_calls)) n );
        ("algebra.cost.bytes_estimate_ratio", fdiv estimated observed);
        ("query.join_probe_cpu_ms", join_probe sys);
      ]
    in
    { system = sys; run; observe; layers }
  in
  (* Each result must equal the reference interpreter run on the same
     two documents. *)
  let reference ~seed =
    let sys = xmark_system ~seed in
    let root peer name =
      Doc.Document.root (Option.get (System.find_document sys peer name))
    in
    let per_region =
      List.map
        (fun region ->
          ( region,
            forest_digest
              (Query.Eval.eval ~gen:(System.gen_of sys hub) join_query
                 [ [ root hub "auctions" ]; [ root region "items" ] ]) ))
        region_peers
    in
    xmark_digest
      (List.init xmark_requests (fun i -> List.assoc (region_of_request i) per_region))
  in
  { name = "xmark_join"; instances = 1; setup; reference = Some reference }

let all = [ flash_crowd; hotspot; overlap; xmark_join ]
let find name = List.find_opt (fun w -> w.name = name) all
