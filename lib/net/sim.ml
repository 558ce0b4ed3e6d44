module Trace = Axml_obs.Trace
module Metrics = Axml_obs.Metrics
module Timeseries = Axml_obs.Timeseries

type 'a event =
  | Deliver of { src : Peer_id.t; dst : Peer_id.t; payload : 'a }
  | Timer of { peer : Peer_id.t; callback : unit -> unit }
  | Control of { callback : unit -> unit }
      (* Fault-plan machinery (crashes, restarts). Runs regardless of
         peer liveness and does not count toward completion time: a
         scheduled restart at t=500ms must not stretch a run that went
         quiescent at t=80ms. *)

(* Per-peer windowed series: transmitted bytes (one observation per
   remote transmission, value = bytes), the load signal placement and
   [axmlctl top] read, and the modelled link latency of each
   transmission, with buckets for top's p95/p99. *)
type ts_handles = {
  t_tx : Timeseries.handle;
  t_lat : Timeseries.handle;
}

(* All per-peer state, reached by one array load from the peer's dense
   {!Peer_id.index} — the string-keyed hashtable lookups (and their
   per-event hashing) this replaces dominated the event loop at 10^3
   peers. *)
type 'a slot = {
  speer : Peer_id.t;
  mutable handler : (src:Peer_id.t -> 'a -> unit) option;
  mutable busy : float;
  mutable factor : float;
  mutable crashed_at : float;  (* < 0.0 = alive *)
  mutable cpu : Metrics.hist_handle option;
      (* [peer/cpu_ms], created lazily and only while metrics are
         enabled, so the disabled path allocates nothing *)
  mutable ts : ts_handles option;
}

type 'a t = {
  topology : Topology.t;
  queue : 'a event Pqueue.t;
  mutable slots : 'a slot option array;  (* indexed by Peer_id.index *)
  stats : Stats.t;
  mutable now : float;
  mutable fault : Fault.state option;
  mutable on_crash : Peer_id.t -> unit;
  mutable on_restart : Peer_id.t -> unit;
  h_events : Metrics.counter_handle;
  h_qdepth : Metrics.gauge_handle;
}

type outcome = [ `Quiescent | `Budget_exhausted ]

let fresh_slot peer =
  {
    speer = peer;
    handler = None;
    busy = 0.0;
    factor = 1.0;
    crashed_at = -1.0;
    cpu = None;
    ts = None;
  }

let create topology =
  let top_idx =
    List.fold_left
      (fun acc p -> max acc (Peer_id.index p))
      (-1)
      (Topology.peers topology)
  in
  let slots = Array.make (max 16 (top_idx + 1)) None in
  List.iter
    (fun p -> slots.(Peer_id.index p) <- Some (fresh_slot p))
    (Topology.peers topology);
  let t =
    {
      topology;
      queue = Pqueue.create ();
      slots;
      stats = Stats.create ();
      now = 0.0;
      fault = None;
      on_crash = ignore;
      on_restart = ignore;
      h_events = Metrics.counter_handle Metrics.default ~subsystem:"sim" "events";
      h_qdepth =
        Metrics.gauge_handle Metrics.default ~subsystem:"sim" "queue_depth";
    }
  in
  (* The most recently created simulator drives the default windowed
     telemetry's clock: window epochs follow virtual time, so
     recordings anywhere in the process (stores included, which have
     no simulator reference) stay deterministic.  Harnesses comparing
     several systems run them one at a time. *)
  Timeseries.set_clock Timeseries.default (fun () -> t.now);
  t

let slot t peer =
  let i = Peer_id.index peer in
  let n = Array.length t.slots in
  if i >= n then begin
    let slots = Array.make (max (i + 1) (2 * n)) None in
    Array.blit t.slots 0 slots 0 n;
    t.slots <- slots
  end;
  match t.slots.(i) with
  | Some s -> s
  | None ->
      let s = fresh_slot peer in
      t.slots.(i) <- Some s;
      s

let cpu_handle s =
  match s.cpu with
  | Some h -> h
  | None ->
      let h =
        Metrics.hist_handle Metrics.default
          ~peer:(Peer_id.to_string s.speer)
          ~subsystem:"peer" "cpu_ms"
      in
      s.cpu <- Some h;
      h

let ts_handles s =
  match s.ts with
  | Some h -> h
  | None ->
      let peer = Peer_id.to_string s.speer in
      let h =
        {
          t_tx = Timeseries.handle Timeseries.default ("peer/" ^ peer ^ "/tx");
          t_lat =
            Timeseries.handle ~hist:true Timeseries.default
              ("peer/" ^ peer ^ "/latency_ms");
        }
      in
      s.ts <- Some h;
      h

let topology t = t.topology
let now t = t.now
let stats t = t.stats
let set_handler t peer f = (slot t peer).handler <- Some f
let busy_until t peer = (slot t peer).busy
let cpu_factor t peer = (slot t peer).factor

let set_cpu_factor t peer factor =
  if factor <= 0.0 then invalid_arg "Sim.set_cpu_factor: factor must be positive";
  (slot t peer).factor <- factor

let consume_cpu t ~peer ~ms =
  if ms < 0.0 then invalid_arg "Sim.consume_cpu: negative duration";
  let s = slot t peer in
  let virtual_ms = ms *. s.factor in
  let horizon = max t.now s.busy +. virtual_ms in
  s.busy <- horizon;
  if Metrics.is_on Metrics.default then
    Metrics.observe_h (cpu_handle s) virtual_ms;
  (* Computation extends the run's completion time even when no
     further message departs from this peer. *)
  Stats.record_time t.stats horizon

(* --- faults ------------------------------------------------------ *)

let is_crashed t peer = (slot t peer).crashed_at >= 0.0

let set_crash_hooks t ~on_crash ~on_restart =
  t.on_crash <- on_crash;
  t.on_restart <- on_restart

let crash t peer =
  let s = slot t peer in
  if s.crashed_at < 0.0 then begin
    s.crashed_at <- t.now;
    if Metrics.is_on Metrics.default then
      Metrics.incr Metrics.default ~peer:(Peer_id.to_string peer)
        ~subsystem:"fault" "crashes";
    if Trace.enabled () then
      Trace.instant ~cat:"fault" ~peer:(Peer_id.to_string peer) ~ts:t.now
        "crash";
    t.on_crash peer
  end

let restart t peer =
  let s = slot t peer in
  if s.crashed_at >= 0.0 then begin
    let since = s.crashed_at in
    s.crashed_at <- -1.0;
    if Metrics.is_on Metrics.default then
      Metrics.incr Metrics.default ~peer:(Peer_id.to_string peer)
        ~subsystem:"fault" "restarts";
    if Trace.enabled () then begin
      (* One retrospective span covering the whole outage. *)
      Trace.complete ~cat:"fault" ~peer:(Peer_id.to_string peer) ~ts:since
        ~dur_ms:(t.now -. since) "crashed";
      Trace.instant ~cat:"fault" ~peer:(Peer_id.to_string peer) ~ts:t.now
        "restart"
    end;
    t.on_restart peer
  end

let reachable t ~src ~dst =
  (not (is_crashed t dst))
  &&
  match t.fault with
  | None -> true
  | Some f -> not (Fault.cut f ~now:t.now ~src ~dst)

let record_drop t ~peer ~reason =
  Stats.record_drop t.stats ~peer;
  if Trace.sampled () then
    Trace.instant ~cat:"fault" ~peer:(Peer_id.to_string peer) ~ts:t.now
      ~args:[ ("reason", reason) ]
      "drop"

let at t ~time callback =
  Pqueue.push t.queue ~time:(max t.now time) (Control { callback })

let inject t plan =
  t.fault <- Some (Fault.attach plan);
  List.iter
    (function
      | Fault.Crash { peer; at_ms; restart_ms } ->
          at t ~time:at_ms (fun () -> crash t peer);
          Option.iter
            (fun r -> at t ~time:r (fun () -> restart t peer))
            restart_ms
      | Fault.Link_down _ | Fault.Partition _ ->
          (* Pure windows, consulted at send time. *)
          ())
    (Fault.events plan)

(* --- sending ----------------------------------------------------- *)

let transmit ?note ?(msgs = 1) t ~departure ~arrival ~src ~dst ~bytes payload =
  Stats.record_send ~msgs t.stats ~src ~dst ~bytes;
  (* Every instrumentation block sits behind one boolean load so that
     the disabled hot path allocates nothing (checked in the E16/E21
     benches); tracing additionally gates on the sampling decision,
     so a sampled-out transmission allocates nothing either. *)
  (if Timeseries.is_on Timeseries.default && not (Peer_id.equal src dst) then begin
     let ph = ts_handles (slot t src) in
     Timeseries.record_at ph.t_tx ~ts:departure (float_of_int bytes);
     Timeseries.record_at ph.t_lat ~ts:departure (arrival -. departure)
   end);
  if Trace.sampled () then begin
    let args =
      let base =
        [ ("dst", Peer_id.to_string dst); ("bytes", string_of_int bytes) ]
      in
      match note with Some n -> ("note", n) :: base | None -> base
    in
    Trace.complete ~cat:"net"
      ~peer:(Peer_id.to_string src)
      ~ts:departure
      ~dur_ms:(arrival -. departure)
      ~args "xfer"
  end;
  Pqueue.push t.queue ~time:arrival (Deliver { src; dst; payload })

type xfer = {
  src : Peer_id.t;
  dst : Peer_id.t;
  depart_ms : float;
  arrive_ms : float;
  bytes : int;
  note : string;
}

let xfers events =
  List.filter_map
    (fun (e : Trace.event) ->
      let arg k = List.assoc_opt k e.args in
      match (e.cat, e.name, arg "dst", arg "bytes") with
      | "net", "xfer", Some dst, Some bytes ->
          Some
            {
              src = Peer_id.of_string e.peer;
              dst = Peer_id.of_string dst;
              depart_ms = e.ts_ms;
              arrive_ms = e.ts_ms +. e.dur_ms;
              bytes = int_of_string bytes;
              note = Option.value ~default:"" (arg "note");
            }
      | _ -> None)
    events

let pp_xfer fmt x =
  Format.fprintf fmt "%8.2fms  %a -> %a  %6dB  %s" x.depart_ms Peer_id.pp x.src
    Peer_id.pp x.dst x.bytes x.note

let send ?note ?msgs t ~src ~dst ~bytes payload =
  let departure = max t.now (busy_until t src) in
  let arrival =
    departure +. Link.transfer_ms (Topology.link t.topology ~src ~dst) ~bytes
  in
  (match t.fault with
  | None ->
      transmit ?note ?msgs t ~departure ~arrival ~src ~dst ~bytes payload
  | Some _ when Peer_id.equal src dst ->
      (* Loopback never traverses the network; faults don't apply. *)
      transmit ?note ?msgs t ~departure ~arrival ~src ~dst ~bytes payload
  | Some f -> (
      match Fault.on_send f ~now:departure ~src ~dst with
      | Fault.Dropped -> record_drop t ~peer:src ~reason:"link"
      | Fault.Deliver { jitters_ms } ->
          List.iter
            (fun jitter_ms ->
              transmit ?note ?msgs t ~departure ~arrival:(arrival +. jitter_ms)
                ~src ~dst ~bytes payload)
            jitters_ms));
  arrival

let after t ~peer ~delay_ms callback =
  if delay_ms < 0.0 then invalid_arg "Sim.after: negative delay";
  Pqueue.push t.queue ~time:(t.now +. delay_ms) (Timer { peer; callback })

let after_cancellable t ~peer ~delay_ms callback =
  if delay_ms < 0.0 then invalid_arg "Sim.after_cancellable: negative delay";
  (* Cancelling removes the timer from the queue at once, in O(log n):
     it neither counts toward {!pending} nor waits in the heap for its
     time to come up.  Most retransmission and delayed-ack timers end
     this way. *)
  Pqueue.push_removable t.queue
    ~time:(t.now +. delay_ms)
    (Timer { peer; callback })

let pending t = Pqueue.length t.queue

let run ?until_ms ?(max_events = 1_000_000) t =
  (* The instrumentation flags are sampled once per run, not per event:
     the hot loop pays one branch, and toggling tracing or metrics from
     inside a handler takes effect at the next [run]. *)
  let metrics_on = Metrics.is_on Metrics.default in
  let trace_on = Trace.enabled () in
  let processed = ref 0 in
  (* The queue-depth gauge is a high-water mark, so only a new maximum
     needs to reach the registry — the common case is an integer
     compare with no float boxing. *)
  let qdepth_hw = ref (-1) in
  let more_events () =
    match (Pqueue.peek_time t.queue, until_ms) with
    | None, _ -> false
    | Some time, Some limit -> time <= limit
    | Some _, None -> true
  in
  (* With no [until_ms] horizon (the common case) the loop condition is
     a pair of integer reads and [Pqueue.take] pops without allocating;
     the [peek_time]/[pop] option path only runs under a horizon. *)
  let continue () =
    !processed < max_events
    && if until_ms = None then not (Pqueue.is_empty t.queue) else more_events ()
  in
  while continue () do
    match Pqueue.take t.queue with
    | exception Pqueue.Empty -> ()
    | event ->
        t.now <- max t.now (Pqueue.last_time t.queue);
        incr processed;
        if metrics_on then begin
          Metrics.incr_h t.h_events ~by:1;
          let depth = Pqueue.length t.queue + 1 in
          if depth > !qdepth_hw then begin
            qdepth_hw := depth;
            Metrics.gauge_max_h t.h_qdepth (float_of_int depth)
          end
        end;
        (match event with
        | Deliver { src; dst; payload } -> (
            Stats.record_time t.stats t.now;
            (* A message arriving at a dead (or never-installed)
               destination is a routable fault, not an abort: the
               bytes were spent, the payload is gone, the run goes
               on.  Counted against the destination. *)
            let s = slot t dst in
            if s.crashed_at >= 0.0 then
              record_drop t ~peer:dst ~reason:"crashed"
            else
              match s.handler with
              | None -> record_drop t ~peer:dst ~reason:"no-handler"
              | Some handler ->
                  if trace_on && Trace.sampled () then begin
                    let sid =
                      Trace.begin_span ~cat:"sim"
                        ~peer:(Peer_id.to_string dst)
                        ~ts:t.now
                        ~args:[ ("src", Peer_id.to_string src) ]
                        "deliver"
                    in
                    handler ~src payload;
                    (* The handler's virtual footprint: any CPU it
                       consumed pushed the peer's busy horizon past
                       [now]. *)
                    Trace.end_span sid ~ts:(max t.now s.busy)
                  end
                  else handler ~src payload)
        | Timer { peer; callback } ->
            Stats.record_time t.stats t.now;
            (* Timers model volatile local state; a crashed peer's
               timers fire into the void. *)
            let s = slot t peer in
            if s.crashed_at < 0.0 then
              if trace_on && Trace.sampled () then begin
                let sid =
                  Trace.begin_span ~cat:"sim"
                    ~peer:(Peer_id.to_string peer)
                    ~ts:t.now "timer"
                in
                callback ();
                Trace.end_span sid ~ts:(max t.now s.busy)
              end
              else callback ()
        | Control { callback } -> callback ())
  done;
  let outcome : outcome =
    if !processed >= max_events && more_events () then `Budget_exhausted
    else `Quiescent
  in
  (outcome, !processed)
