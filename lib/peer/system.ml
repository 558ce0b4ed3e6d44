module Peer_id = Axml_net.Peer_id
module Names = Axml_doc.Names
module Sim = Axml_net.Sim
module Tree = Axml_xml.Tree
module Forest = Axml_xml.Forest
module Trace = Axml_obs.Trace
module Metrics = Axml_obs.Metrics
module Timeseries = Axml_obs.Timeseries

let log = Logs.Src.create "axml.system" ~doc:"AXML peer system"

module Log = (val Logs.src_log log)

type emit = Forest.t -> final:bool -> unit

type cont_entry = {
  mutable remaining_finals : int;
  mutable batches : int;
  fn : emit;
}

type transport = Raw | Reliable

(* Which wire encoding the simulator charges (and, for
   [Binary_strict], actually runs).  [Xml] is the original model:
   bytes = XML serialization size plus a fixed envelope.  [Binary]
   charges the exact encoded frame length computed by {!Codec} without
   materializing frames.  [Binary_strict] charges what [Binary] does
   and additionally encodes and decodes every physical transmission,
   so the whole stack (transport, chaos plans, dispatch) exercises
   the codec end to end. *)
type wire = Xml | Binary | Binary_strict

(* Reliable-transport state: one connection record per ordered peer
   pair (a, b), bundling every role [a] plays in its conversation with
   [b]: the sequence cursors, the sender-side window for a→b traffic
   (the unflushed [queue] and the sent-but-[unacked] messages under
   one retry timer, and the RTT estimator that sets it), and the
   receiver-side state for b→a traffic (the early-arrival [buffer] and
   the delayed standalone ack).  Each message does one int-keyed probe
   (packed dense peer indexes) to reach all of its state.

   Durability: [next_seq] / [next_expected] model WAL-backed cursors
   and survive a crash of [a], so a restarted peer neither reuses
   sequence numbers (which would be mistaken for duplicates) nor
   re-accepts old ones.  Everything else in the record is volatile and
   reset by {!handle_crash} — safe because a buffered message is never
   acked, so losing the buffer just means the sender retransmits.  The
   record itself is created on first contact and never removed. *)

(* The transport's counters for one peer — what its windows sent and
   the duplicates it discarded — and the only count of those events.
   They are the system's bookkeeping, not the peer's state: a crash
   leaves them alone.  The same record is the public, read-only view. *)
type reliability_counters = {
  mutable retransmits : int;  (* window timeouts that re-shipped *)
  mutable dup_suppressed : int;  (* duplicates discarded *)
  mutable abandoned : int;  (* messages given up on *)
  mutable acks_sent : int;  (* standalone acks ... *)
  mutable batches_sent : int;  (* Batch frames ... *)
  mutable batched_messages : int;  (* ... the items they carried ... *)
  mutable piggybacked_acks : int;  (* ... the owed acks they carried *)
  mutable delayed_acks : int;  (* standalone acks fired after a deferral *)
}

type conn = {
  c_src : Peer_id.t;  (* a *)
  c_dst : Peer_id.t;  (* b *)
  counts : reliability_counters;  (* a's, shared by all of a's conns *)
  mutable next_seq : int;  (* last seq assigned to a→b traffic *)
  mutable next_expected : int;  (* next in-order seq awaited from b *)
  mutable queue : Message.t list;  (* awaiting flush, newest first *)
  mutable flush_pending : bool;
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

(* Pre-resolved per-peer metric handles for the routing/stream hot
   path — a keyed [Metrics.incr] allocates a key tuple and hashes
   three strings per call, which showed up at the E21 1000-peer tier —
   and the peer's [peer/<p>/inflight] series. *)
type peer_metrics = {
  m_routed : Metrics.counter_handle;
  m_stream_batches : Metrics.hist_handle;
  t_inflight : Timeseries.handle;
}

type t = {
  sim : Message.t Sim.t;
  mutable peers : Peer.t option array;  (* indexed by dense Peer_id.index *)
  mutable pmetrics : peer_metrics option array;  (* same index *)
  conts : (int, cont_entry) Hashtbl.t;
  mutable next_key : int;
  response_delay_ms : float;
  cpu_ms_per_kb : float;
  transport : transport;
  wire : wire;
  flush_ms : float;
  ack_delay_ms : float;
  conns : (int, conn) Hashtbl.t;  (* packed (a, b) dense-index pair *)
  counts : reliability_counters Peer_id.Table.t;
      (* created with a peer's first conn *)
  mutable failover_save : Peer_id.t -> unit;
  mutable failover_load : Peer_id.t -> unit;
  mutable qcache_capacity : int option;
      (* [Some cap] = semantic caching enabled; every live peer (and
         every peer recreated by a crash) carries a fresh
         [Peer.qcache] of this capacity. *)
  mutable qcache_retired : Axml_query.Qcache.stats;
      (* the counts of caches a crash discarded *)
}

type eval_hook = t -> ctx:Peer_id.t -> Axml_algebra.Expr.t -> emit:emit -> unit

let eval_hook : eval_hook ref =
  ref (fun _ ~ctx:_ _ ~emit:_ ->
      failwith
        "System: no expression evaluator installed (Axml_peer.Exec not \
         linked?)")

let set_eval_hook f = eval_hook := f
let sim t = t.sim
let response_delay_ms t = t.response_delay_ms
let cpu_ms_per_kb t = t.cpu_ms_per_kb
let transport t = t.transport
let wire t = t.wire
let flush_ms t = t.flush_ms
let ack_delay_ms t = t.ack_delay_ms

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

let add_counters a b =
  {
    retransmits = a.retransmits + b.retransmits;
    dup_suppressed = a.dup_suppressed + b.dup_suppressed;
    abandoned = a.abandoned + b.abandoned;
    acks_sent = a.acks_sent + b.acks_sent;
    batches_sent = a.batches_sent + b.batches_sent;
    batched_messages = a.batched_messages + b.batched_messages;
    piggybacked_acks = a.piggybacked_acks + b.piggybacked_acks;
    delayed_acks = a.delayed_acks + b.delayed_acks;
  }

let reliability_counters t =
  Peer_id.Table.fold (fun _ c acc -> add_counters acc c) t.counts
    (no_counters ())

(* Copies, so a caller's list does not move with the live counts. *)
let reliability_by_peer t =
  Peer_id.Table.fold
    (fun p c acc -> (p, add_counters (no_counters ()) c) :: acc)
    t.counts []
  |> List.sort (fun (a, _) (b, _) -> Peer_id.compare a b)

(* Dense per-peer slots: the per-dispatch peer lookup is an array load
   instead of a string hash + probe. *)
let peer_slot t p =
  let i = Peer_id.index p in
  if i < Array.length t.peers then t.peers.(i) else None

let peer t p =
  match peer_slot t p with Some peer -> peer | None -> raise Not_found

let peer_metrics t p =
  let i = Peer_id.index p in
  if i >= Array.length t.pmetrics then begin
    let arr = Array.make (max (i + 1) (2 * Array.length t.pmetrics)) None in
    Array.blit t.pmetrics 0 arr 0 (Array.length t.pmetrics);
    t.pmetrics <- arr
  end;
  match t.pmetrics.(i) with
  | Some h -> h
  | None ->
      let peer = Peer_id.to_string p in
      let h =
        {
          m_routed =
            Metrics.counter_handle Metrics.default ~peer ~subsystem:"peer"
              "routed_batches";
          m_stream_batches =
            Metrics.hist_handle Metrics.default ~peer ~subsystem:"stream"
              "batches";
          t_inflight =
            Timeseries.handle Timeseries.default ("peer/" ^ peer ^ "/inflight");
        }
      in
      t.pmetrics.(i) <- Some h;
      h

let set_peer t p v =
  let i = Peer_id.index p in
  if i >= Array.length t.peers then begin
    let arr = Array.make (max (i + 1) (2 * Array.length t.peers)) None in
    Array.blit t.peers 0 arr 0 (Array.length t.peers);
    t.peers <- arr
  end;
  t.peers.(i) <- Some v

let peers t =
  Axml_net.Topology.peers (Sim.topology t.sim) |> List.map (peer t)

let gen_of t p = (peer t p).Peer.gen

(* Semantic result cache (DESIGN.md §18).  Attaching gives the peer a
   fresh empty cache and wires the store's mutation hook to eager
   invalidation of entries pinned to the peer's own documents;
   cross-peer dependencies are revalidated lazily at probe time
   against live version stamps (same live-read convention as
   [cost_env]: versions model the invalidation protocol's knowledge,
   not shipped state). *)
let attach_qcache t p =
  match t.qcache_capacity with
  | None -> ()
  | Some capacity ->
      let pr = peer t p in
      let owner = Peer_id.to_string p in
      pr.Peer.qcache <-
        Some
          (Axml_query.Qcache.create ~capacity
             ~equal:Axml_algebra.Expr.equal ());
      Axml_doc.Store.set_on_mutate pr.Peer.store (fun name ->
          match pr.Peer.qcache with
          | Some c ->
              Axml_query.Qcache.invalidate_dep c ~peer:owner
                ~doc:(Names.Doc_name.to_string name)
          | None -> ())

let enable_qcache ?(capacity = 256) t =
  t.qcache_capacity <- Some capacity;
  List.iter (fun (pr : Peer.t) -> attach_qcache t pr.Peer.id) (peers t)

let qcache_enabled t = t.qcache_capacity <> None

let doc_version t ~peer:p ~doc =
  match peer_slot t p with
  | None -> None
  | Some pr -> (
      match Names.Doc_name.of_string_opt doc with
      | None -> None
      | Some n -> Axml_doc.Store.version_of pr.Peer.store n)

let qcache_stats t =
  List.fold_left
    (fun acc (pr : Peer.t) ->
      match pr.Peer.qcache with
      | Some c -> Axml_query.Qcache.add_stats acc (Axml_query.Qcache.stats c)
      | None -> acc)
    t.qcache_retired (peers t)

let fresh_key t =
  let k = t.next_key in
  t.next_key <- t.next_key + 1;
  k

let set_cont ?(expected_finals = 1) t key f =
  Hashtbl.replace t.conts key
    { remaining_finals = expected_finals; batches = 0; fn = f }

(* The [xfer] span's label; rendering it costs, so only a transmission
   whose span is kept pays. *)
let note_of payload =
  if Trace.sampled () then Some (Format.asprintf "%a" Message.pp payload)
  else None

let raw_send t ~src ~dst (msg : Message.t) =
  (* The charged size is the wire's: the XML model walks the payload,
     the binary wire reads cached encoded-frame lengths.  Strict mode
     then replaces the in-flight message with its encode→decode round
     trip, so the receiver works off what the decoder rebuilt from a
     real frame.  Returns the frame's expected arrival ({!Sim.send}). *)
  let bytes =
    match t.wire with
    | Xml -> Message.bytes msg.Message.payload
    | Binary | Binary_strict -> Codec.frame_bytes msg
  in
  let msg =
    match t.wire with
    | Xml | Binary -> msg
    | Binary_strict -> Codec.roundtrip msg
  in
  Sim.send
    ?note:(note_of msg.Message.payload)
    ~msgs:(Message.batch_size msg.Message.payload)
    t.sim ~src ~dst ~bytes msg

(* The retransmission timer's constants.  [rto_ms] is a direction's
   RTO before its first RTT sample, and the floor under every later
   estimate (the pairing RFC 6298 §2 makes with its 1 s); the
   pre-sample doubling stops at 4 · [rto_ms] = 160 ms and a backed-off
   wait at 32 · [rto_ms] = 1280 ms.  [max_retries] timeouts of one
   window abandon it, so a permanently dead destination cannot keep
   the simulation alive forever. *)
let rto_ms = 40.0
let max_retries = 30

let conn_key a b = (Peer_id.index a lsl 31) lor Peer_id.index b

let counts_of t p =
  match Peer_id.Table.find_opt t.counts p with
  | Some c -> c
  | None ->
      let c = no_counters () in
      Peer_id.Table.add t.counts p c;
      c

let conn t a b =
  let key = conn_key a b in
  match Hashtbl.find t.conns key with
  | c -> c
  | exception Not_found ->
      let c =
        {
          c_src = a;
          c_dst = b;
          counts = counts_of t a;
          next_seq = 0;
          next_expected = 1;
          queue = [];
          flush_pending = false;
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
      in
      Hashtbl.add t.conns key c;
      c

(* Lookup that must not create: used where the old tables answered
   [None] for a pair that never communicated. *)
let conn_opt t a b =
  match Hashtbl.find t.conns (conn_key a b) with
  | c -> Some c
  | exception Not_found -> None

(* --- the sequenced window (sender side) --------------------------- *)

(* Under [Reliable] every sequenced message joins its direction's
   window: it waits in [queue] until the next flush (immediately when
   [flush_ms = 0], otherwise after a Nagle-style coalescing window),
   then stays in [unacked] until a cumulative ack covers it.  One
   retry timer per direction guards the whole window. *)

(* Highest sequence number [c.c_src] has delivered from [c.c_dst] —
   what a cumulative ack acknowledges ([0] = nothing yet). *)
let cum_ack (c : conn) = c.next_expected - 1

(* A frame of several messages, or of one message plus an owed ack:
   one [Message.Batch] carrying a piggybacked cumulative ack of the
   reverse direction. *)
let send_batch t ~src ~dst (d : conn) msgs =
  if d.ack_due then begin
    (* The pending standalone ack is subsumed by this frame's
       piggybacked cumulative ack. *)
    d.cancel_ack ();
    d.ack_due <- false;
    d.counts.piggybacked_acks <- d.counts.piggybacked_acks + 1
  end;
  let payload = Message.batch ~ack:(cum_ack d) msgs in
  let items = Message.batch_size payload in
  d.counts.batches_sent <- d.counts.batches_sent + 1;
  d.counts.batched_messages <- d.counts.batched_messages + items;
  if Trace.sampled () then
    Trace.instant ~cat:"net"
      ~peer:(Peer_id.to_string src)
      ~ts:(Sim.now t.sim)
      ~args:
        [
          ("dst", Peer_id.to_string dst);
          ("items", string_of_int items);
          ("ack", string_of_int (cum_ack d));
        ]
      "batch";
  raw_send t ~src ~dst (Message.make payload)

(* The retransmission timeout adapts to each direction's round trip
   (Jacobson 1988; RFC 6298 gains).  The sender knows when its frames
   depart and how long their bytes take on the link ({!Sim.send}'s
   expected arrival); the estimator learns the rest of the round trip
   — the receiver's delay and the ack's way back — from one timed
   message at a time ([ship] starts a sample, [handle_cum_ack] ends
   it).  Only a message shipped once is timed: the ack of a re-shipped
   message may answer either copy (Karn).  Until the first sample
   [rto] is [rto_ms], doubled by each timeout up to [4 · rto_ms], so a
   direction whose round trip outlasts the initial timeout still gets
   a message through once and yields a sample.  After it, [rto] never
   drops below [rto_ms]: repeated equal samples shrink [rttvar]
   towards zero, and without the floor the first ack held back a few
   ms — by a busy receiver's CPU, say — would lose to the timer. *)
let rtt_sample (d : conn) r =
  if d.srtt < 0.0 then begin
    d.srtt <- r;
    d.rttvar <- r /. 2.0
  end
  else begin
    d.rttvar <- (0.75 *. d.rttvar) +. (0.25 *. Float.abs (d.srtt -. r));
    d.srtt <- (0.875 *. d.srtt) +. (0.125 *. r)
  end;
  d.rto <- Float.max rto_ms (d.srtt +. (4.0 *. d.rttvar))

let rto t ~src ~dst = Option.map (fun (d : conn) -> d.rto) (conn_opt t src dst)

(* Ship one frame.  A flush carries only the window's fresh messages;
   a retransmission timeout re-ships the whole unacked window
   (go-back-N on loss only — re-shipping on every flush would go
   quadratic when the flush window is shorter than the RTT).  A lone
   message with no ack to carry ships bare, so at
   [flush_ms = ack_delay_ms = 0] every physical message is one logical
   message.  The frame's expected arrival — departure (after the
   sender's busy CPU) plus the link's transfer time for its bytes —
   joins the window's.  A fresh frame (the whole queue, so its last
   message is [next_seq]) starts an RTT sample if none is running,
   from the window's latest expected arrival: a cumulative ack covers
   the frame only once every earlier one has arrived too.  A re-ship
   cancels the running sample (Karn). *)
let ship t ~src ~dst (d : conn) ~fresh msgs =
  let arrival =
    match msgs with
    | [ msg ] when not d.ack_due -> raw_send t ~src ~dst msg
    | _ -> send_batch t ~src ~dst d msgs
  in
  d.arrival <- Float.max d.arrival arrival;
  if not fresh then d.timed_seq <- 0
  else if d.timed_seq = 0 then begin
    d.timed_seq <- d.next_seq;
    d.timed_at <- d.arrival
  end

(* (Re)start the direction's retry timer.  It fires at the window's
   latest expected frame arrival (or now, if that has passed), plus
   [ack_delay_ms], plus [rto] doubled per attempt and capped at
   [32 · rto_ms]: no single wait past an expected ack is longer.  It
   starts when a flush finds the window idle and restarts on a
   retransmission and on ack progress; a fresh frame joining a busy
   window leaves it running (RFC 6298 §5.1), so steady new traffic
   cannot postpone the re-ship of an old loss.  It gives up after
   [max_retries], counting the abandonment.  The
   connection record is captured by the timer closure — records are
   never replaced, so the capture cannot go stale. *)
let rec arm_retry t (d : conn) ~src ~dst =
  let now = Sim.now t.sim in
  let wait =
    Float.min
      (d.rto *. (2.0 ** float_of_int (min d.attempt 5)))
      (32.0 *. rto_ms)
  in
  d.cancel_retry ();
  d.cancel_retry <-
    Sim.after_cancellable t.sim ~peer:src
      ~delay_ms:(Float.max 0.0 (d.arrival -. now) +. t.ack_delay_ms +. wait)
      (fun () -> retry_window t d ~src ~dst)

and retry_window t (d : conn) ~src ~dst =
  match d.unacked with
  | [] -> ()
  | unacked when d.attempt >= max_retries ->
      let n = List.length unacked in
      d.unacked <- [];
      d.attempt <- 0;
      d.timed_seq <- 0;
      d.counts.abandoned <- d.counts.abandoned + n;
      (* SLO breach: the whole unacked window was given up on. *)
      if Trace.sampled () then
        Trace.instant ~cat:"slo"
          ~peer:(Peer_id.to_string src)
          ~ts:(Sim.now t.sim)
          ~args:
            [ ("dst", Peer_id.to_string dst); ("count", string_of_int n) ]
          "abandoned";
      Log.warn (fun m ->
          m "peer %a: abandoning %d message(s) to %a after %d retries"
            Peer_id.pp src n Peer_id.pp dst max_retries)
  | unacked ->
      d.attempt <- d.attempt + 1;
      if d.srtt < 0.0 then d.rto <- Float.min (2.0 *. d.rto) (4.0 *. rto_ms);
      d.counts.retransmits <- d.counts.retransmits + 1;
      ship t ~src ~dst d ~fresh:false unacked;
      arm_retry t d ~src ~dst

let flush t ~src ~dst (d : conn) =
  d.flush_pending <- false;
  match List.rev d.queue with
  | [] -> ()  (* stale timer, e.g. surviving a crash+restart *)
  | fresh ->
      d.queue <- [];
      let idle = d.unacked = [] in
      d.unacked <- d.unacked @ fresh;
      ship t ~src ~dst d ~fresh:true fresh;
      if idle then arm_retry t d ~src ~dst

(* [unacked] is in ascending seq order, so what a cumulative ack
   covers is a prefix. *)
let rec drop_acked upto = function
  | (m : Message.t) :: rest when m.Message.seq <= upto -> drop_acked upto rest
  | rest -> rest

(* Everything up to [upto] is delivered at the far side.  Progress
   may complete an RTT sample, resets the backoff and restarts the
   retry timer for the rest of the window; an emptied window parks
   it. *)
let handle_cum_ack t ~at ~from upto =
  match conn_opt t at from with
  | None -> ()
  | Some d -> (
      match drop_acked upto d.unacked with
      | rest when rest == d.unacked -> ()
      | rest ->
          if d.timed_seq > 0 && d.timed_seq <= upto then begin
            rtt_sample d (Sim.now t.sim -. d.timed_at);
            d.timed_seq <- 0
          end;
          d.unacked <- rest;
          d.attempt <- 0;
          if rest = [] then begin
            d.cancel_retry ();
            d.cancel_retry <- ignore
          end
          else arm_retry t d ~src:at ~dst:from)

(* Sender-side congestion telemetry: how many sequenced messages to
   [c.c_dst] are in flight (unacked window plus the unflushed queue)
   the moment a new send joins them, recorded per sending peer — a
   window's max is the peak over the peer's outgoing connections,
   which is what [axmlctl top] shows. *)
let note_inflight t (c : conn) =
  (* [+ 1] counts the joining message itself: a quiet connection
     reads 1, a saturating one its whole outstanding window. *)
  Timeseries.record (peer_metrics t c.c_src).t_inflight
    (float_of_int (1 + List.length c.unacked + List.length c.queue))

let send t ~src ~dst payload =
  let corr = Trace.current_corr () in
  let op = Trace.current_op () in
  let sequenced =
    match (t.transport, payload) with
    | Raw, _ -> false
    | Reliable, Message.Ack _ -> false
    | Reliable, _ -> not (Peer_id.equal src dst)
    (* Loopback delivery cannot be lost; acks are themselves the
       protocol's feedback and must stay unsequenced or every ack
       would need an ack. *)
  in
  if not sequenced then
    ignore (raw_send t ~src ~dst (Message.make ~corr ~op payload))
  else begin
    let c = conn t src dst in
    let seq = c.next_seq + 1 in
    c.next_seq <- seq;
    let msg = Message.make ~corr ~seq ~op payload in
    if Timeseries.is_on Timeseries.default then note_inflight t c;
    c.queue <- msg :: c.queue;
    if t.flush_ms <= 0.0 then flush t ~src ~dst c
    else if not c.flush_pending then begin
      c.flush_pending <- true;
      Sim.after t.sim ~peer:src ~delay_ms:t.flush_ms (fun () ->
          flush t ~src ~dst c)
    end
  end

(* --- the sequenced window (receiver side, ack scheduling) -------- *)

(* A standalone cumulative ack of everything [d.c_src] has delivered
   from [d.c_dst]. *)
let send_ack t (d : conn) ~corr =
  d.counts.acks_sent <- d.counts.acks_sent + 1;
  ignore
    (raw_send t ~src:d.c_src ~dst:d.c_dst
       (Message.make ~corr (Message.Ack { seq = cum_ack d })))

let fire_delayed_ack t (d : conn) =
  if d.ack_due then begin
    d.ack_due <- false;
    d.counts.delayed_acks <- d.counts.delayed_acks + 1;
    send_ack t d ~corr:0
  end

(* Owe the sender an acknowledgement.  With no delay configured a
   standalone cumulative ack leaves immediately, carrying the
   correlation id of the message that prompted it; otherwise a single
   timer is armed (re-arming would starve the sender under a steady
   stream) and cancelled if reverse traffic piggybacks first. *)
let schedule_ack t ~corr (d : conn) =
  if t.ack_delay_ms <= 0.0 then send_ack t d ~corr
  else if not d.ack_due then begin
    d.ack_due <- true;
    d.cancel_ack <-
      Sim.after_cancellable t.sim ~peer:d.c_src ~delay_ms:t.ack_delay_ms
        (fun () -> fire_delayed_ack t d)
  end

let consume_cpu t ~peer ~bytes =
  Sim.consume_cpu t.sim ~peer
    ~ms:(t.cpu_ms_per_kb *. (float_of_int bytes /. 1024.0))

let route ?notify t ~src dest forest ~final =
  (* [notify] rides on the message so the acknowledgement fires at the
     destination, after the side effect — a bare ack message would
     overtake the (larger, slower) data it acknowledges. *)
  if Metrics.is_on Metrics.default then
    Metrics.incr_h (peer_metrics t src).m_routed ~by:1;
  if Trace.sampled () then
    Trace.instant ~cat:"peer"
      ~peer:(Peer_id.to_string src)
      ~ts:(Sim.now t.sim)
      ~args:
        [
          ( "dest",
            match dest with
            | Message.Cont { peer; key } ->
                Printf.sprintf "cont[%d]@%s" key (Peer_id.to_string peer)
            | Message.Node r ->
                "node@" ^ Peer_id.to_string r.Names.Node_ref.peer
            | Message.Install { peer; name } ->
                Printf.sprintf "install %s@%s" name (Peer_id.to_string peer) );
          ("bytes", string_of_int (Forest.byte_size forest));
          ("final", string_of_bool final);
        ]
      "route";
  let notify = if final then notify else None in
  match dest with
  | Message.Cont { peer; key } ->
      if forest <> [] || final then
        send t ~src ~dst:peer (Message.Stream { key; forest; final })
  | Message.Node r ->
      if forest <> [] || notify <> None then
        send t ~src ~dst:r.Names.Node_ref.peer
          (Message.Insert { node = r.Names.Node_ref.node; forest; notify })
  | Message.Install { peer; name } ->
      if forest <> [] || notify <> None then
        send t ~src ~dst:peer (Message.Install_doc { name; forest; notify })

(* Notify doc-feed watchers that a document has grown. *)
let notify_watchers t self doc_name forest =
  List.iter
    (fun dest -> route t ~src:self.Peer.id dest forest ~final:false)
    (Peer.watchers_of self doc_name)

let run_service t (self : Peer.t) service params replies =
  let respond forest ~final =
    List.iter (fun dest -> route t ~src:self.Peer.id dest forest ~final) replies
  in
  match Axml_doc.Registry.find self.Peer.registry service with
  | None ->
      Log.warn (fun m ->
          m "peer %a: invoke of unknown service %a" Peer_id.pp self.Peer.id
            Names.Service_name.pp service);
      respond [] ~final:true
  | Some svc -> (
      match Axml_doc.Service.impl svc with
      | Axml_doc.Service.Declarative q ->
          let input_bytes =
            List.fold_left (fun acc f -> acc + Forest.byte_size f) 0 params
          in
          consume_cpu t ~peer:self.Peer.id ~bytes:input_bytes;
          let out =
            try Axml_query.Compile.eval ~gen:self.Peer.gen q params
            with Invalid_argument msg ->
              Log.err (fun m ->
                  m "peer %a: service %a failed: %s" Peer_id.pp self.Peer.id
                    Names.Service_name.pp service msg);
              []
          in
          respond out ~final:true
      | Axml_doc.Service.Extern f ->
          let out =
            try f params
            with exn ->
              Log.err (fun m ->
                  m "peer %a: extern service %a raised %s" Peer_id.pp
                    self.Peer.id Names.Service_name.pp service
                    (Printexc.to_string exn));
              []
          in
          (* A continuous service sends its responses successively
             (Section 2.1); space them by the configured delay. *)
          if Axml_doc.Service.continuous svc && List.length out > 1 then
            List.iteri
              (fun i tree ->
                let final = i = List.length out - 1 in
                Sim.after t.sim ~peer:self.Peer.id
                  ~delay_ms:(t.response_delay_ms *. float_of_int i)
                  (fun () -> respond [ tree ] ~final))
              out
          else respond out ~final:true
      | Axml_doc.Service.Doc_feed doc_name ->
          let current =
            match Axml_doc.Store.find self.Peer.store doc_name with
            | Some doc ->
                List.map
                  (Tree.copy ~gen:self.Peer.gen)
                  (Tree.children (Axml_doc.Document.root doc))
            | None -> []
          in
          (* Initial batch now; future inserts via the watcher list.
             A feed never terminates — no final batch. *)
          respond current ~final:false;
          List.iter (fun dest -> Peer.watch self doc_name dest) replies)

let ping t (self : Peer.t) = function
  | None -> ()
  | Some (peer, key) ->
      send t ~src:self.Peer.id ~dst:peer
        (Message.Stream { key; forest = []; final = true })

(* Placement forwarding (DESIGN.md §17): an append applied to a
   document with registered replica links is re-shipped verbatim to
   each target.  Replicas preserve node ids, so the same [Insert]
   lands under the same node there; targets hold no links of their
   own (the controller never replicates onto a holder), so
   forwarding cannot loop. *)
let forward_to_replicas t (self : Peer.t) name ~node forest =
  match Peer.replica_targets self name with
  | [] -> ()
  | targets ->
      List.iter
        (fun dst ->
          send t ~src:self.Peer.id ~dst
            (Message.Insert { node; forest; notify = None }))
        targets

let handle_insert t (self : Peer.t) node forest notify =
  (match Peer.find_doc_with_node self node with
  | None ->
      Log.warn (fun m ->
          m "peer %a: insert target node %a not found" Peer_id.pp self.Peer.id
            Axml_xml.Node_id.pp node)
  | Some doc -> (
      let name = Axml_doc.Document.name doc in
      (* Store-level insert: keeps the document's structural index
         maintained incrementally instead of invalidating it. *)
      match Axml_doc.Store.insert_under self.Peer.store name ~node forest with
      | None -> ()
      | Some _ ->
          notify_watchers t self name forest;
          forward_to_replicas t self name ~node forest));
  ping t self notify

let handle_install t (self : Peer.t) name forest notify =
  (* A quiet lookup: appending a stream's batch is a write, and must not
     read as demand for the document (DESIGN.md §17). *)
  (match Axml_doc.Store.peek_by_string self.Peer.store name with
  | Some doc ->
      (* Subsequent batches of the same stream accumulate under the
         existing root. *)
      let root = Axml_doc.Document.root doc in
      (match Tree.id root with
      | Some node -> (
          match
            Axml_doc.Store.insert_under self.Peer.store
              (Axml_doc.Document.name doc) ~node forest
          with
          | Some _ ->
              notify_watchers t self (Axml_doc.Document.name doc) forest;
              forward_to_replicas t self (Axml_doc.Document.name doc) ~node
                forest
          | None -> ())
      | None -> ())
  | None ->
      let root =
        match forest with
        | [ (Tree.Element _ as tree) ] -> tree
        | forest ->
            Tree.element ~gen:self.Peer.gen
              (Axml_xml.Label.of_string "doc")
              forest
      in
      ignore (Axml_doc.Store.install self.Peer.store ~name root));
  ping t self notify

(* Placement handoff (DESIGN.md §17): install-or-replace a replica
   under exactly the shipped name and node ids.  Unlike
   [handle_install] the name is never uniquified and an existing
   document is {e replaced}, so a re-shipped migration (restart
   resync, duplicate delivery under Raw) is idempotent.  The
   acknowledgement pings only on success — a malformed ship times out
   at the controller and the migration aborts. *)
let handle_migrate t (self : Peer.t) name forest notify =
  match forest with
  | [ (Tree.Element _ as root) ] ->
      (match Axml_doc.Store.peek_by_string self.Peer.store name with
      | Some doc ->
          ignore
            (Axml_doc.Store.update_root self.Peer.store
               (Axml_doc.Document.name doc)
               (fun _ -> root))
      | None ->
          Axml_doc.Store.add self.Peer.store (Axml_doc.Document.make ~name root));
      ping t self notify
  | _ ->
      Log.warn (fun m ->
          m "peer %a: malformed migrate of %s (not a single element)"
            Peer_id.pp self.Peer.id name)

let handle_retract t (self : Peer.t) name notify =
  (match Axml_doc.Store.peek_by_string self.Peer.store name with
  | Some doc -> Axml_doc.Store.remove self.Peer.store (Axml_doc.Document.name doc)
  | None -> ());
  ping t self notify

let dispatch_payload t (self : Peer.t) ~src payload =
  ignore src;
  match payload with
  | Message.Stream { key; forest; final } -> (
      match Hashtbl.find_opt t.conts key with
      | None ->
          Log.debug (fun m ->
              m "peer %a: stream for dead continuation %d" Peer_id.pp
                self.Peer.id key)
      | Some entry ->
          entry.batches <- entry.batches + 1;
          if final then begin
            entry.remaining_finals <- entry.remaining_finals - 1;
            if entry.remaining_finals <= 0 then begin
              Hashtbl.remove t.conts key;
              if Metrics.is_on Metrics.default then
                Metrics.observe_h
                  (peer_metrics t self.Peer.id).m_stream_batches
                  (float_of_int entry.batches)
            end
          end;
          (* The consumer sees the stream close only when every
             expected source has finished. *)
          entry.fn forest ~final:(final && entry.remaining_finals <= 0))
  | Message.Eval_request { expr; replies; ack } ->
      let is_side_effecting = function
        | Message.Cont _ -> false
        | Message.Node _ | Message.Install _ -> true
      in
      let side_dests = List.filter is_side_effecting replies in
      let finished = ref false in
      let emit forest ~final =
        if not !finished then begin
          List.iter
            (fun dest ->
              let notify = if is_side_effecting dest then ack else None in
              route ?notify t ~src:self.Peer.id dest forest ~final)
            replies;
          if final then begin
            finished := true;
            (* With no side-effecting destination the ack fires
               directly; otherwise the destinations acknowledge after
               applying the final batch. *)
            match ack with
            | Some (peer, key) when side_dests = [] ->
                send t ~src:self.Peer.id ~dst:peer
                  (Message.Stream { key; forest = []; final = true })
            | Some _ | None -> ()
          end
        end
      in
      !eval_hook t ~ctx:self.Peer.id expr ~emit
  | Message.Invoke { service; params; replies } ->
      run_service t self service params replies
  | Message.Insert { node; forest; notify } ->
      handle_insert t self node forest notify
  | Message.Install_doc { name; forest; notify } ->
      handle_install t self name forest notify
  | Message.Migrate_doc { name; forest; notify } ->
      handle_migrate t self name forest notify
  | Message.Retract_doc { name; notify } -> handle_retract t self name notify
  | Message.Deploy { prefix; query; reply } ->
      let name =
        Axml_doc.Registry.install_query self.Peer.registry ~prefix query
      in
      route t ~src:self.Peer.id reply
        [ Tree.text (Names.Service_name.to_string name) ]
        ~final:true
  | Message.Query_shipped { key; query = _ } -> (
      match Hashtbl.find_opt t.conts key with
      | None -> ()
      | Some entry ->
          Hashtbl.remove t.conts key;
          entry.fn [] ~final:true)
  | Message.Ack _ | Message.Batch _ ->
      (* Consumed by the transport layer (on_message) before dispatch:
         a batch frame is unpacked into its items there. *)
      ()

(* Delivery entry point: re-establish the sender's correlation id (and
   the profiler's operator id) as the ambient ones, so spans recorded
   here — and any messages sent from here — stay attached to the
   logical computation that caused this delivery, across any number of
   hops.  Written closure-free (swap/restore rather than
   with_corr/Fun.protect) because this is the per-message hot path:
   with tracing enabled but this correlation sampled out, the whole
   prelude is two ref swaps and a cached boolean — no span arguments
   are ever built. *)
let dispatch t (self : Peer.t) ~src (msg : Message.t) =
  if not (Trace.enabled ()) then
    dispatch_payload t self ~src msg.Message.payload
  else begin
    let corr0 = Trace.swap_corr msg.Message.corr in
    let op0 = Trace.swap_op msg.Message.op in
    let sid =
      if Trace.sampled () then
        Trace.begin_span ~cat:"peer"
          ~peer:(Peer_id.to_string self.Peer.id)
          ~ts:(Sim.now t.sim)
          ~args:[ ("src", Peer_id.to_string src) ]
          ("handle " ^ Message.tag msg.Message.payload)
      else Trace.null
    in
    let finish () =
      Trace.end_span sid
        ~ts:(max (Sim.now t.sim) (Sim.busy_until t.sim self.Peer.id));
      Trace.restore_op op0;
      Trace.restore_corr corr0
    in
    match dispatch_payload t self ~src msg.Message.payload with
    | () -> finish ()
    | exception e ->
        finish ();
        raise e
  end

(* Receiver-side transport stage, run before dispatch.  Sequenced
   messages are delivered to the application exactly once and in send
   order: early arrivals wait in a (volatile) buffer, duplicates are
   suppressed, and an ack is owed only when a message is actually
   delivered — never for a merely buffered one, so a crash that wipes
   the buffer cannot lose anything the sender believes delivered.

   The ack is owed {e before} the message is dispatched: a handler can
   keep the peer busy for a long simulated time (a declarative service
   charges [cpu_ms_per_kb]), and an ack sent after dispatch would
   depart only when that CPU ends — late enough to fire the sender's
   retry timer for a message that arrived in time. *)
let rec deliver_ready t (c : conn) p ~src (msg : Message.t) =
  let seq = msg.Message.seq in
  c.next_expected <- seq + 1;
  schedule_ack t ~corr:msg.Message.corr c;
  dispatch t (peer t p) ~src msg;
  match Hashtbl.find_opt c.buffer (seq + 1) with
  | Some next ->
      Hashtbl.remove c.buffer (seq + 1);
      deliver_ready t c p ~src next
  | None -> ()

let receive_sequenced t p ~src (msg : Message.t) =
  let c = conn t p src in
  let seq = msg.Message.seq in
  let expected = c.next_expected in
  if seq < expected then begin
    (* Already delivered — a lost ack or a go-back-N re-ship.  Owe a
       (cumulative) re-ack so the sender's window drains. *)
    c.counts.dup_suppressed <- c.counts.dup_suppressed + 1;
    schedule_ack t ~corr:msg.Message.corr c
  end
  else if seq > expected then begin
    if Hashtbl.mem c.buffer seq then
      c.counts.dup_suppressed <- c.counts.dup_suppressed + 1
    else Hashtbl.replace c.buffer seq msg
  end
  else deliver_ready t c p ~src msg

let on_message t p ~src (msg : Message.t) =
  match msg.Message.payload with
  | Message.Batch { items; ack } ->
      if ack > 0 then handle_cum_ack t ~at:p ~from:src ack;
      List.iter (receive_sequenced t p ~src) items
  | Message.Ack { seq } -> handle_cum_ack t ~at:p ~from:src seq
  | _ when msg.Message.seq = 0 -> dispatch t (peer t p) ~src msg
  | _ -> receive_sequenced t p ~src msg

(* A crash wipes everything volatile the peer holds: its store,
   registry, catalog, watchers — and the transport's in-flight state
   on both sides of every conversation it participates in as the
   crashed party.  The id generator and the sequence cursors are
   durable (see [conn]); [failover_save] snapshots Σ members for a
   later [failover_load] (wired up by {!Failover.enable} — without it
   a restarted peer comes back empty). *)
let handle_crash t p =
  t.failover_save p;
  (* Every conn (p, _) holds all of p's volatile transport roles: its
     send windows and their RTT estimators, its early-arrival buffers
     and its owed delayed acks.  Reset them in place, keeping the
     durable cursors.  (Conns (_, p) belong to live senders, which keep
     retransmitting toward the outage as they should.) *)
  let pi = Peer_id.index p in
  Hashtbl.iter
    (fun key (c : conn) ->
      if key lsr 31 = pi then begin
        c.queue <- [];
        c.flush_pending <- false;
        c.unacked <- [];
        c.attempt <- 0;
        c.cancel_retry ();
        c.cancel_retry <- ignore;
        c.arrival <- 0.0;
        c.srtt <- -1.0;
        c.rttvar <- 0.0;
        c.rto <- rto_ms;
        c.timed_seq <- 0;
        Hashtbl.reset c.buffer;
        c.ack_due <- false;
        c.cancel_ack ();
        c.cancel_ack <- ignore
      end)
    t.conns;
  let old = peer t p in
  set_peer t p (Peer.create ~gen:old.Peer.gen ~policy:old.Peer.policy p);
  (* The semantic cache is volatile: the replacement peer gets a fresh
     empty one (when caching is on), never the pre-crash contents —
     but what the old one counted stays counted. *)
  Option.iter
    (fun c ->
      t.qcache_retired <-
        Axml_query.Qcache.(add_stats t.qcache_retired (stats c)))
    old.Peer.qcache;
  attach_qcache t p

(* Restart resynchronization (DESIGN.md §17).  A crash wipes the
   crashed peer's pending transport sends — forwarded appends in
   flight {e from} it are gone — and a long outage may have exhausted
   retransmissions {e toward} it.  Re-shipping the whole replica over
   every forwarding link touching the restarted peer restores replica
   equality; [Migrate_doc]'s replace semantics make each re-ship
   idempotent, and Reliable FIFO sequences it correctly against any
   appends still in flight on the same link. *)
let reship_replica t ~src ~dst doc_name =
  match Axml_doc.Store.peek (peer t src).Peer.store doc_name with
  | Some doc -> (
      match Axml_doc.Document.root doc with
      | Tree.Element _ as root ->
          send t ~src ~dst
            (Message.Migrate_doc
               {
                 name = Names.Doc_name.to_string doc_name;
                 forest = [ root ];
                 notify = None;
               })
      | Tree.Text _ -> ())
  | None -> ()

let resync_replicas t p =
  List.iter
    (fun (doc, target) ->
      if not (Sim.is_crashed t.sim target) then
        reship_replica t ~src:p ~dst:target doc)
    (Peer.replica_links (peer t p));
  List.iter
    (fun (q : Peer.t) ->
      if
        (not (Peer_id.equal q.Peer.id p))
        && not (Sim.is_crashed t.sim q.Peer.id)
      then
        List.iter
          (fun (doc, target) ->
            if Peer_id.equal target p then
              reship_replica t ~src:q.Peer.id ~dst:p doc)
          (Peer.replica_links q))
    (peers t)

let create ?(response_delay_ms = 1.0) ?(cpu_ms_per_kb = 0.01)
    ?(transport = Raw) ?(wire = Xml) ?(flush_ms = 0.0) ?(ack_delay_ms = 0.0)
    topology =
  if flush_ms < 0.0 then invalid_arg "System.create: negative flush_ms";
  if ack_delay_ms < 0.0 then invalid_arg "System.create: negative ack_delay_ms";
  let sim = Sim.create topology in
  let t =
    {
      sim;
      peers = Array.make 16 None;
      pmetrics = Array.make 16 None;
      conts = Hashtbl.create 64;
      next_key = 0;
      response_delay_ms;
      cpu_ms_per_kb;
      transport;
      wire;
      flush_ms;
      ack_delay_ms;
      conns = Hashtbl.create 64;
      counts = Peer_id.Table.create 16;
      failover_save = ignore;
      failover_load = ignore;
      qcache_capacity = None;
      qcache_retired = Axml_query.Qcache.zero_stats;
    }
  in
  List.iter
    (fun p ->
      set_peer t p (Peer.create p);
      (* The handler resolves the Peer.t at dispatch time: a crash
         replaces the record behind [p], and a stale capture here
         would resurrect pre-crash state. *)
      Sim.set_handler sim p (fun ~src msg -> on_message t p ~src msg))
    (Axml_net.Topology.peers topology);
  Sim.set_crash_hooks sim
    ~on_crash:(fun p -> handle_crash t p)
    ~on_restart:(fun p ->
      t.failover_load p;
      resync_replicas t p);
  t

let set_failover t ~save ~load =
  t.failover_save <- save;
  t.failover_load <- load

let inject_faults t plan = Sim.inject t.sim plan
let crash t p = Sim.crash t.sim p
let restart t p = Sim.restart t.sim p

(* The membership filter for generic (d@any / s@any) resolution:
   skip members on peers that are currently crashed or cut off from
   [from], so generic calls degrade onto surviving members instead of
   routing into a black hole. *)
let availability t ~from p =
  Peer_id.equal from p || Sim.reachable t.sim ~src:from ~dst:p

let add_document t p ~name tree =
  Axml_doc.Store.add (peer t p).Peer.store (Axml_doc.Document.make ~name tree)

let load_document t p ~name ~xml =
  let tree = Axml_xml.Parser.parse_exn ~gen:(gen_of t p) xml in
  add_document t p ~name tree

let add_service t p service =
  Axml_doc.Registry.add (peer t p).Peer.registry service

let register_doc_class t ~class_name ref_ =
  List.iter
    (fun (p : Peer.t) ->
      Axml_doc.Generic.register_doc p.Peer.catalog ~class_name ref_)
    (peers t)

let unregister_doc_class t ~class_name ref_ =
  List.iter
    (fun (p : Peer.t) ->
      Axml_doc.Generic.unregister_doc p.Peer.catalog ~class_name ref_)
    (peers t)

let register_service_class t ~class_name ref_ =
  List.iter
    (fun (p : Peer.t) ->
      Axml_doc.Generic.register_service p.Peer.catalog ~class_name ref_)
    (peers t)

(* Document-level call activation: steps 1-3 of Section 2.2.  The
   default forward target is the parent of the sc node — responses
   accumulate as siblings of the call. *)
let activate_call_now t ~owner ~doc ~node =
  let self = peer t owner in
  match Axml_doc.Store.find self.Peer.store doc with
  | None -> false
  | Some document -> (
      let root = Axml_doc.Document.root document in
      match Tree.find_by_id node root with
      | None -> false
      | Some element -> (
          match Axml_doc.Sc.of_element element with
          | Error _ -> false
          | Ok sc -> (
              let replies =
                match sc.Axml_doc.Sc.forward with
                | [] -> (
                    match Tree.parent_of node root with
                    | Some parent ->
                        [
                          Message.Node
                            (Names.Node_ref.make ~node:parent.Tree.id
                               ~peer:owner);
                        ]
                    | None ->
                        (* Root-level sc: accumulate under the sc node
                           itself. *)
                        [ Message.Node (Names.Node_ref.make ~node ~peer:owner) ])
                | fw -> List.map (fun r -> Message.Node r) fw
              in
              let params =
                List.map (Forest.copy ~gen:self.Peer.gen) sc.Axml_doc.Sc.params
              in
              match sc.Axml_doc.Sc.provider with
              | Names.At provider ->
                  send t ~src:owner ~dst:provider
                    (Message.Invoke
                       { service = sc.Axml_doc.Sc.service; params; replies });
                  true
              | Names.Any -> (
                  let picked =
                    Axml_doc.Generic.pick_service
                      ~available:(availability t ~from:owner)
                      self.Peer.catalog ~policy:self.Peer.policy
                      ~class_name:
                        (Names.Service_name.to_string sc.Axml_doc.Sc.service)
                  in
                  match picked with
                  | Some r -> (
                      match r.Names.Service_ref.at with
                      | Names.At provider ->
                          send t ~src:owner ~dst:provider
                            (Message.Invoke
                               {
                                 service = r.Names.Service_ref.name;
                                 params;
                                 replies;
                               });
                          true
                      | Names.Any -> false)
                  | None ->
                      Log.warn (fun m ->
                          m "peer %a: no member for generic service %a"
                            Peer_id.pp owner Names.Service_name.pp
                            sc.Axml_doc.Sc.service);
                      false))))

(* Each document-level activation is its own logical computation: it
   gets a fresh correlation id, which its Invoke message (and every
   downstream response, insert and acknowledgement) then carries. *)
let activate_call t ~owner ~doc ~node =
  let activated =
    if Trace.enabled () then
      Trace.with_corr (Trace.fresh_corr ()) (fun () ->
          let sid =
            (* Sampling decides per fresh correlation: a dropped
               activation records nothing here or downstream. *)
            if Trace.sampled () then
              Trace.begin_span ~cat:"peer"
                ~peer:(Peer_id.to_string owner)
                ~ts:(Sim.now t.sim)
                ~args:[ ("doc", Names.Doc_name.to_string doc) ]
                "activate_call"
            else Trace.null
          in
          Fun.protect
            ~finally:(fun () -> Trace.end_span sid ~ts:(Sim.now t.sim))
            (fun () -> activate_call_now t ~owner ~doc ~node))
    else activate_call_now t ~owner ~doc ~node
  in
  if activated && Metrics.is_on Metrics.default then
    Metrics.incr Metrics.default
      ~peer:(Peer_id.to_string owner)
      ~subsystem:"peer" "activations";
  activated

let activate_all t ?peer:only () =
  let count = ref 0 in
  List.iter
    (fun (p : Peer.t) ->
      match only with
      | Some o when not (Peer_id.equal o p.Peer.id) -> ()
      | Some _ | None ->
          List.iter
            (fun doc ->
              List.iter
                (fun (node, _sc) ->
                  if
                    activate_call t ~owner:p.Peer.id
                      ~doc:(Axml_doc.Document.name doc) ~node
                  then incr count)
                (Axml_doc.Document.calls doc))
            (Axml_doc.Store.documents p.Peer.store))
    (peers t);
  !count

let run ?max_events t = Sim.run ?max_events t.sim
let now_ms t = Sim.now t.sim
let stats t = Axml_net.Stats.snapshot (Sim.stats t.sim)
let reset_stats t = Axml_net.Stats.reset (Sim.stats t.sim)

let is_tmp name = String.length name >= 4 && String.sub name 0 4 = "_tmp"

let fingerprint t =
  let buf = Buffer.create 256 in
  List.iter
    (fun (p : Peer.t) ->
      Buffer.add_string buf (Peer_id.to_string p.Peer.id);
      Buffer.add_string buf "{docs:";
      List.iter
        (fun name ->
          let ns = Names.Doc_name.to_string name in
          if not (is_tmp ns) then begin
            match Axml_doc.Store.peek p.Peer.store name with
            | Some doc ->
                Buffer.add_string buf ns;
                Buffer.add_char buf '=';
                Buffer.add_string buf
                  (Axml_doc.Equivalence.fingerprint (Axml_doc.Document.root doc));
                Buffer.add_char buf ';'
            | None -> ()
          end)
        (Axml_doc.Store.names p.Peer.store);
      Buffer.add_string buf "|svcs:";
      List.iter
        (fun name ->
          let ns = Names.Service_name.to_string name in
          if not (is_tmp ns) then begin
            Buffer.add_string buf ns;
            Buffer.add_char buf ';'
          end)
        (Axml_doc.Registry.names p.Peer.registry);
      Buffer.add_string buf "}\n")
    (peers t);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Location-independent Σ digest: what the system {e knows}, not
   where it sits.  Identical replicas of a document collapse to one
   entry (sort_uniq), so a migration — which copies content without
   changing it — leaves this fingerprint untouched, while a lost,
   duplicated or diverged append shows up immediately.  The content
   digests come from {!Axml_doc.Equivalence.fingerprint}, which is
   node-id-insensitive, so re-minted ids do not register either. *)
let content_fingerprint t =
  let entries = ref [] in
  List.iter
    (fun (p : Peer.t) ->
      List.iter
        (fun name ->
          let ns = Names.Doc_name.to_string name in
          if not (is_tmp ns) then
            match Axml_doc.Store.peek p.Peer.store name with
            | Some doc ->
                entries :=
                  (ns ^ "="
                  ^ Axml_doc.Equivalence.fingerprint
                      (Axml_doc.Document.root doc))
                  :: !entries
            | None -> ())
        (Axml_doc.Store.names p.Peer.store);
      List.iter
        (fun name ->
          let ns = Names.Service_name.to_string name in
          if not (is_tmp ns) then entries := ("svc:" ^ ns) :: !entries)
        (Axml_doc.Registry.names p.Peer.registry))
    (peers t);
  let buf = Buffer.create 256 in
  List.iter
    (fun e ->
      Buffer.add_string buf e;
      Buffer.add_char buf '\n')
    (List.sort_uniq String.compare !entries);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let find_document t p name =
  Axml_doc.Store.find_by_string (peer t p).Peer.store name

(* A cost environment whose oracles read the live Σ: document sizes
   and statistics from the stores, service implementations from the
   registries, link and CPU pricing from the simulator — so a plan
   optimized against it is optimized against the very system about to
   run it. *)
let cost_env t =
  let topology = Sim.topology t.sim in
  let all_peer_ids = Axml_net.Topology.peers topology in
  (* Both document oracles read the store's statistics, kept until the
     document changes: a document's size is its [total_bytes].  They
     are quiet reads — planning is not demand, so cost estimates stay
     out of the doc/<n>/reads series the placement controller reads. *)
  let doc_stats (r : Names.Doc_ref.t) =
    let stats_at p =
      Option.bind (peer_slot t p) (fun peer ->
          Axml_doc.Store.stats_of peer.Peer.store r.Names.Doc_ref.name)
    in
    match r.Names.Doc_ref.at with
    | Names.At p -> stats_at p
    | Names.Any -> List.find_map stats_at all_peer_ids
  in
  let doc_bytes r =
    match doc_stats r with
    | Some st -> Axml_query.Selectivity.Stats.total_bytes st
    | None -> 4096
  in
  let service_query (r : Names.Service_ref.t) =
    let visible p =
      Option.bind (peer_slot t p) (fun peer ->
          Axml_doc.Registry.visible_query peer.Peer.registry
            r.Names.Service_ref.name)
    in
    match r.Names.Service_ref.at with
    | Names.At p -> visible p
    | Names.Any -> List.find_map visible all_peer_ids
  in
  Axml_algebra.Cost.default_env ~cpu_ms_per_kb:t.cpu_ms_per_kb
    ~cpu_factor:(fun p -> Sim.cpu_factor t.sim p)
    ~doc_bytes ~doc_stats ~service_query topology

let pp_state fmt t =
  List.iter
    (fun (p : Peer.t) ->
      Format.fprintf fmt "@[<v 2>peer %a:@ " Peer_id.pp p.Peer.id;
      List.iter
        (fun doc ->
          Format.fprintf fmt "%a@ " Axml_doc.Document.pp doc)
        (Axml_doc.Store.documents p.Peer.store);
      List.iter
        (fun svc -> Format.fprintf fmt "%a@ " Axml_doc.Service.pp svc)
        (Axml_doc.Registry.services p.Peer.registry);
      Format.fprintf fmt "@]@.")
    (peers t)
