module Peer_id = Axml_net.Peer_id
module Sim = Axml_net.Sim
module Trace = Axml_obs.Trace
module Timeseries = Axml_obs.Timeseries

let log = Logs.Src.create "axml.transport" ~doc:"AXML reliable transport"

module Log = (val Logs.src_log log)

type counters = {
  mutable retransmits : int;  (* window timeouts that re-shipped *)
  mutable dup_suppressed : int;  (* duplicates discarded *)
  mutable abandoned : int;  (* messages given up on *)
  mutable acks_sent : int;  (* standalone acks ... *)
  mutable batches_sent : int;  (* Batch frames ... *)
  mutable batched_messages : int;  (* ... the items they carried ... *)
  mutable piggybacked_acks : int;  (* ... the owed acks they carried *)
  mutable delayed_acks : int;  (* standalone acks fired after a deferral *)
}

(* The volatile half of a connection (a, b): the sender-side window for
   a→b traffic (the unflushed [queue] and the sent-but-[unacked]
   messages under one retry timer, and the RTT estimator that sets it)
   and the receiver-side state for b→a traffic (the early-arrival
   [buffer] and the delayed standalone ack).  Replacing it is safe: a
   buffered message is never acked, so losing the buffer just means
   the sender retransmits. *)
type window = {
  mutable queue : Message.t list;  (* awaiting flush, newest first *)
  mutable unacked : Message.t list;  (* sent, ascending seq *)
  mutable attempt : int;
  mutable cancel_retry : unit -> unit;
  mutable arrival : float;  (* latest expected arrival of a shipped frame *)
  mutable srtt : float;  (* smoothed RTT; negative until the first sample *)
  mutable rttvar : float;
  mutable rto : float;  (* the un-backed-off timeout *)
  mutable timed_seq : int;  (* the message being timed, 0 = none ... *)
  mutable timed_at : float;  (* ... and [arrival] when it shipped *)
  buffer : (int, Message.t) Hashtbl.t;  (* seq -> early arrival from b *)
  mutable ack_due : bool;  (* a standalone ack timer is armed *)
  mutable cancel_ack : unit -> unit;
}

(* One per ordered peer pair (a, b), held by a's endpoint: the durable
   cursors and the current window.  Never removed, so timer closures
   capture it and read its current [w]. *)
type conn = {
  far : Peer_id.t;  (* b *)
  mutable next_seq : int;  (* last seq assigned to a→b traffic *)
  mutable next_expected : int;  (* next in-order seq awaited from b *)
  mutable w : window;
}

type t = {
  sim : Message.t Sim.t;
  flush_ms : float;
  ack_delay_ms : float;
  send_frame : src:Peer_id.t -> dst:Peer_id.t -> Message.t -> float;
  deliver : Peer_id.t -> src:Peer_id.t -> Message.t -> unit;
}

type endpoint = {
  tr : t;
  self : Peer_id.t;
  counts : counters;
  inflight : Timeseries.handle;  (* peer/<self>/inflight *)
  mutable conns : conn array;  (* by ascending [Peer_id.index far] *)
}

let create sim ~flush_ms ~ack_delay_ms ~send ~deliver =
  { sim; flush_ms; ack_delay_ms; send_frame = send; deliver }

let no_counters () =
  {
    retransmits = 0;
    dup_suppressed = 0;
    abandoned = 0;
    acks_sent = 0;
    batches_sent = 0;
    batched_messages = 0;
    piggybacked_acks = 0;
    delayed_acks = 0;
  }

let endpoint tr self =
  {
    tr;
    self;
    counts = no_counters ();
    inflight =
      Timeseries.handle Timeseries.default
        ("peer/" ^ Peer_id.to_string self ^ "/inflight");
    conns = [||];
  }

let counters ep =
  if Array.length ep.conns = 0 then None
  else Some { ep.counts with retransmits = ep.counts.retransmits }

let sum =
  List.fold_left
    (fun a b ->
      {
        retransmits = a.retransmits + b.retransmits;
        dup_suppressed = a.dup_suppressed + b.dup_suppressed;
        abandoned = a.abandoned + b.abandoned;
        acks_sent = a.acks_sent + b.acks_sent;
        batches_sent = a.batches_sent + b.batches_sent;
        batched_messages = a.batched_messages + b.batched_messages;
        piggybacked_acks = a.piggybacked_acks + b.piggybacked_acks;
        delayed_acks = a.delayed_acks + b.delayed_acks;
      })
    (no_counters ())

(* [rto_ms] is a direction's RTO before its first RTT sample and the
   floor under every later estimate (RFC 6298 §2 pairs its 1 s the
   same way); the pre-sample doubling stops at 4 · [rto_ms] and a
   backed-off wait at 32 · [rto_ms].  [max_retries] timeouts of one
   window abandon it. *)
let rto_ms = 40.0
let max_retries = 30

let fresh_window () =
  {
    queue = [];
    unacked = [];
    attempt = 0;
    cancel_retry = ignore;
    arrival = 0.0;
    srtt = -1.0;
    rttvar = 0.0;
    rto = rto_ms;
    timed_seq = 0;
    timed_at = 0.0;
    buffer = Hashtbl.create 8;
    ack_due = false;
    cancel_ack = ignore;
  }

(* The slot of the conn to peer index [i] in [conns.(lo .. hi - 1)],
   or [-1 - s] when there is none and [s] is where it belongs. *)
let rec search conns i lo hi =
  if lo >= hi then -1 - lo
  else
    let mid = (lo + hi) lsr 1 in
    let k = Peer_id.index conns.(mid).far in
    if k = i then mid
    else if k < i then search conns i (mid + 1) hi
    else search conns i lo mid

let find ep far =
  search ep.conns (Peer_id.index far) 0 (Array.length ep.conns)

(* Made on first contact, a few per peer: the array is rebuilt for
   each, so it holds exactly the conns in use. *)
let conn ep far =
  match find ep far with
  | j when j >= 0 -> ep.conns.(j)
  | j ->
      let a = ep.conns and j = -1 - j in
      let c = { far; next_seq = 0; next_expected = 1; w = fresh_window () } in
      ep.conns <-
        Array.concat [ Array.sub a 0 j; [| c |]; Array.sub a j (Array.length a - j) ];
      c

(* Highest sequence number the endpoint has delivered from [c.far] —
   what a cumulative ack acknowledges ([0] = nothing yet). *)
let cum_ack c = c.next_expected - 1

(* A frame of several messages, or of one message plus an owed ack:
   one [Message.Batch] carrying a piggybacked cumulative ack of the
   reverse direction. *)
let send_batch ep c msgs =
  let w = c.w and k = ep.counts in
  if w.ack_due then begin
    w.cancel_ack ();
    w.ack_due <- false;
    k.piggybacked_acks <- k.piggybacked_acks + 1
  end;
  let payload = Message.batch ~ack:(cum_ack c) msgs in
  let items = Message.batch_size payload in
  k.batches_sent <- k.batches_sent + 1;
  k.batched_messages <- k.batched_messages + items;
  if Trace.sampled () then
    Trace.instant ~cat:"net"
      ~peer:(Peer_id.to_string ep.self)
      ~ts:(Sim.now ep.tr.sim)
      ~args:
        [
          ("dst", Peer_id.to_string c.far);
          ("items", string_of_int items);
          ("ack", string_of_int (cum_ack c));
        ]
      "batch";
  ep.tr.send_frame ~src:ep.self ~dst:c.far (Message.make payload)

(* Jacobson 1988 with RFC 6298's gains (DESIGN.md §12).  The sender
   knows its frames' expected arrival ({!Sim.send}); the estimator
   learns the rest of the round trip — the receiver's delay and the
   ack's way back — from one timed message at a time ([ship] starts a
   sample, [handle_cum_ack] ends it).  [rto] never drops below
   [rto_ms]: equal samples shrink [rttvar] towards zero, and without
   the floor the first ack held back a few ms would lose to the
   timer. *)
let rtt_sample w r =
  if w.srtt < 0.0 then begin
    w.srtt <- r;
    w.rttvar <- r /. 2.0
  end
  else begin
    w.rttvar <- (0.75 *. w.rttvar) +. (0.25 *. Float.abs (w.srtt -. r));
    w.srtt <- (0.875 *. w.srtt) +. (0.125 *. r)
  end;
  w.rto <- Float.max rto_ms (w.srtt +. (4.0 *. w.rttvar))

let rto ep ~dst =
  let j = find ep dst in
  if j < 0 then None else Some ep.conns.(j).w.rto

(* Ship one frame: a flush's fresh messages, or on a timeout the whole
   unacked window (go-back-N on loss only — re-shipping on every flush
   would go quadratic when [flush_ms] is shorter than the RTT).  A lone
   message with no ack to carry ships bare.  A fresh frame (the whole
   queue, ending with [next_seq]) starts an RTT sample if none runs,
   from the window's latest expected arrival: a cumulative ack covers
   it only once every earlier frame is in.  A re-ship cancels the
   sample, since its ack may answer either copy (Karn). *)
let ship ep c ~fresh msgs =
  let w = c.w in
  let arrival =
    match msgs with
    | [ msg ] when not w.ack_due -> ep.tr.send_frame ~src:ep.self ~dst:c.far msg
    | _ -> send_batch ep c msgs
  in
  w.arrival <- Float.max w.arrival arrival;
  if not fresh then w.timed_seq <- 0
  else if w.timed_seq = 0 then begin
    w.timed_seq <- c.next_seq;
    w.timed_at <- w.arrival
  end

(* (Re)start the direction's retry timer: at the window's latest
   expected frame arrival (or now), plus [ack_delay_ms], plus [rto]
   doubled per attempt and capped at [32 · rto_ms].  A flush that finds
   the window idle starts it, a retransmission or ack progress
   restarts it; a fresh frame joining a busy window leaves it running
   (RFC 6298 §5.1), so steady new traffic cannot postpone the re-ship
   of an old loss. *)
let rec arm_retry ep c =
  let tr = ep.tr and w = c.w in
  let wait =
    Float.min
      (w.rto *. (2.0 ** float_of_int (min w.attempt 5)))
      (32.0 *. rto_ms)
  in
  w.cancel_retry ();
  w.cancel_retry <-
    Sim.after_cancellable tr.sim ~peer:ep.self
      ~delay_ms:
        (Float.max 0.0 (w.arrival -. Sim.now tr.sim) +. tr.ack_delay_ms +. wait)
      (fun () -> retry_window ep c)

and retry_window ep c =
  let w = c.w and k = ep.counts in
  match w.unacked with
  | [] -> ()
  | unacked when w.attempt >= max_retries ->
      let n = List.length unacked in
      w.unacked <- [];
      w.attempt <- 0;
      w.timed_seq <- 0;
      k.abandoned <- k.abandoned + n;
      (* SLO breach: the whole unacked window was given up on. *)
      if Trace.sampled () then
        Trace.instant ~cat:"slo"
          ~peer:(Peer_id.to_string ep.self)
          ~ts:(Sim.now ep.tr.sim)
          ~args:
            [ ("dst", Peer_id.to_string c.far); ("count", string_of_int n) ]
          "abandoned";
      Log.warn (fun m ->
          m "peer %a: abandoning %d message(s) to %a after %d retries"
            Peer_id.pp ep.self n Peer_id.pp c.far max_retries)
  | unacked ->
      w.attempt <- w.attempt + 1;
      if w.srtt < 0.0 then w.rto <- Float.min (2.0 *. w.rto) (4.0 *. rto_ms);
      k.retransmits <- k.retransmits + 1;
      ship ep c ~fresh:false unacked;
      arm_retry ep c

(* A flush timer is a plain {!Sim.after}, which a crash does not
   cancel: armed before one, it may fire after the restart, and then
   ships the current window's queue early. *)
let flush ep c =
  let w = c.w in
  match List.rev w.queue with
  | [] -> ()  (* stale timer *)
  | fresh ->
      w.queue <- [];
      let idle = w.unacked = [] in
      w.unacked <- w.unacked @ fresh;
      ship ep c ~fresh:true fresh;
      if idle then arm_retry ep c

(* [unacked] is in ascending seq order, so what a cumulative ack
   covers is a prefix. *)
let rec drop_acked upto = function
  | (m : Message.t) :: rest when m.Message.seq <= upto -> drop_acked upto rest
  | rest -> rest

(* Everything up to [upto] is delivered at the far side.  Progress
   may complete an RTT sample, resets the backoff and restarts the
   retry timer for the rest of the window; an emptied window parks
   it. *)
let handle_cum_ack ep ~from upto =
  let j = find ep from in
  if j >= 0 then begin
    let c = ep.conns.(j) in
    let w = c.w in
    match drop_acked upto w.unacked with
    | rest when rest == w.unacked -> ()
    | rest ->
        if w.timed_seq > 0 && w.timed_seq <= upto then begin
          rtt_sample w (Sim.now ep.tr.sim -. w.timed_at);
          w.timed_seq <- 0
        end;
        w.unacked <- rest;
        w.attempt <- 0;
        if rest = [] then begin
          w.cancel_retry ();
          w.cancel_retry <- ignore
        end
        else arm_retry ep c
  end

let send ep ~dst payload =
  let tr = ep.tr in
  let corr = Trace.current_corr () in
  let op = Trace.current_op () in
  let sequenced =
    match payload with
    | Message.Ack _ -> false
    | _ -> not (Peer_id.equal ep.self dst)
    (* Loopback delivery cannot be lost; acks are themselves the
       protocol's feedback and must stay unsequenced or every ack
       would need an ack. *)
  in
  if not sequenced then
    ignore (tr.send_frame ~src:ep.self ~dst (Message.make ~corr ~op payload))
  else begin
    let c = conn ep dst in
    let seq = c.next_seq + 1 in
    c.next_seq <- seq;
    let w = c.w in
    (* In flight to [dst] as this message joins, itself included; per
       sending peer, so a window's max is the peak over its
       connections — what [axmlctl top] shows. *)
    if Timeseries.is_on Timeseries.default then
      Timeseries.record ep.inflight
        (float_of_int (1 + List.length w.unacked + List.length w.queue));
    (* With [flush_ms > 0] the first message into an empty queue arms
       the flush that empties it. *)
    let idle = w.queue = [] in
    w.queue <- Message.make ~corr ~seq ~op payload :: w.queue;
    if tr.flush_ms <= 0.0 then flush ep c
    else if idle then
      Sim.after tr.sim ~peer:ep.self ~delay_ms:tr.flush_ms (fun () ->
          flush ep c)
  end

(* A standalone cumulative ack of everything delivered from [c.far]. *)
let send_ack ep c ~corr =
  ep.counts.acks_sent <- ep.counts.acks_sent + 1;
  ignore
    (ep.tr.send_frame ~src:ep.self ~dst:c.far
       (Message.make ~corr (Message.Ack { seq = cum_ack c })))

let fire_delayed_ack ep c =
  if c.w.ack_due then begin
    c.w.ack_due <- false;
    ep.counts.delayed_acks <- ep.counts.delayed_acks + 1;
    send_ack ep c ~corr:0
  end

(* Owe the sender an acknowledgement.  With no delay configured a
   standalone cumulative ack leaves immediately, carrying the
   correlation id of the message that prompted it; otherwise a single
   timer is armed (re-arming would starve the sender under a steady
   stream) and cancelled if reverse traffic piggybacks first. *)
let schedule_ack ep c ~corr =
  let tr = ep.tr and w = c.w in
  if tr.ack_delay_ms <= 0.0 then send_ack ep c ~corr
  else if not w.ack_due then begin
    w.ack_due <- true;
    w.cancel_ack <-
      Sim.after_cancellable tr.sim ~peer:ep.self ~delay_ms:tr.ack_delay_ms
        (fun () -> fire_delayed_ack ep c)
  end

(* An ack is owed only for a delivered message — never for a buffered
   one, so a crash that wipes the buffer loses nothing the sender
   believes delivered — and {e before} it is delivered: a handler can
   keep the peer busy for a long simulated time, and an ack sent after
   it would depart only when that CPU ends, late enough to fire the
   sender's retry timer.  The buffer is read after delivery, since a
   crash inside the handler replaces it. *)
let rec deliver_ready ep c (msg : Message.t) =
  let seq = msg.Message.seq in
  c.next_expected <- seq + 1;
  schedule_ack ep c ~corr:msg.Message.corr;
  ep.tr.deliver ep.self ~src:c.far msg;
  let buffer = c.w.buffer in
  match Hashtbl.find_opt buffer (seq + 1) with
  | Some next ->
      Hashtbl.remove buffer (seq + 1);
      deliver_ready ep c next
  | None -> ()

let receive_sequenced ep ~src (msg : Message.t) =
  let c = conn ep src in
  let seq = msg.Message.seq in
  let expected = c.next_expected in
  if seq < expected then begin
    (* Already delivered — a lost ack or a go-back-N re-ship.  Owe a
       (cumulative) re-ack so the sender's window drains. *)
    ep.counts.dup_suppressed <- ep.counts.dup_suppressed + 1;
    schedule_ack ep c ~corr:msg.Message.corr
  end
  else if seq > expected then begin
    if Hashtbl.mem c.w.buffer seq then
      ep.counts.dup_suppressed <- ep.counts.dup_suppressed + 1
    else Hashtbl.replace c.w.buffer seq msg
  end
  else deliver_ready ep c msg

let on_message ep ~src (msg : Message.t) =
  match msg.Message.payload with
  | Message.Batch { items; ack } ->
      if ack > 0 then handle_cum_ack ep ~from:src ack;
      List.iter (receive_sequenced ep ~src) items
  | Message.Ack { seq } -> handle_cum_ack ep ~from:src seq
  | _ when msg.Message.seq = 0 -> ep.tr.deliver ep.self ~src msg
  | _ -> receive_sequenced ep ~src msg

let crash ep =
  Array.iter
    (fun c ->
      c.w.cancel_retry ();
      c.w.cancel_ack ();
      c.w <- fresh_window ())
    ep.conns
