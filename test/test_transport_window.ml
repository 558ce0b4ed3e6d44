(* The sequenced window driven alone (DESIGN.md §12–13): two or three
   {!Transport} endpoints on a bare simulator — no System, no stores,
   only frames, acks, timers and faults.

   Each case sends random streams through an eventually-quiet fault
   plan that drops, duplicates and jitters, at a random [flush_ms] in
   {0, 2} and [ack_delay_ms] in {0, 8}.  Every direction must deliver
   exactly what it sent, once and in order, and the simulator must
   drain.  Each message must also arrive within the retry timer's
   bound (DESIGN.md §12): once the faults are over — the plan quiet,
   the last send flushed, a crashed receiver back — any loss is
   re-shipped within [ack_delay_ms] + 1280 ms past the expected
   arrival of its window's frames.

   Cases whose streams all go one way may crash and restart their
   receiver: its cursors are durable and its window holds nothing a
   sender believes delivered, so the senders' windows ride out the
   outage.  Senders never crash here.  A crashed sender keeps its
   durable [next_seq] but loses the unacked messages it stamped, so
   its receiver can wait on the hole forever; sender crashes join this
   property once the window persists what it stamps. *)

open Axml
open Helpers
module Message = Runtime.Message
module Transport = Runtime.Transport
module Sim = Net.Sim
module Fault = Net.Fault

let latency = 10.0
let bandwidth = 1000.0
let quiet_ms = 300.0

type case = {
  n : int;  (* peers *)
  flush_ms : float;
  ack_delay_ms : float;
  profile : Fault.link_profile;
  sends : (float * int * int * int) list;  (* at, src, dst, text length *)
  crash : (int * float * float) option;  (* receiver, down, back up *)
}

let case_of_seed seed =
  let r = Random.State.make [| seed |] in
  let int n = Random.State.int r n and float x = Random.State.float r x in
  let n = 2 + int 2 in
  let one_way = Random.State.bool r and receiver = int n in
  let peers = List.init n Fun.id in
  let pairs =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            if a <> b && ((not one_way) || b = receiver) then Some (a, b)
            else None)
          peers)
      peers
  in
  let flush_ms = if Random.State.bool r then 2.0 else 0.0 in
  let ack_delay_ms = if Random.State.bool r then 8.0 else 0.0 in
  let profile =
    { Fault.drop = float 0.3; duplicate = float 0.2; jitter_ms = float 15.0 }
  in
  (* Sends on a 5 ms grid, so bursts share a flush. *)
  let sends =
    List.concat_map
      (fun (a, b) ->
        List.init (int 13) (fun _ ->
            (5.0 *. float_of_int (int 60), a, b, 1 + int 300)))
      pairs
  in
  let crash =
    if one_way && Random.State.bool r then
      let down = float 400.0 in
      Some (receiver, down, down +. 50.0 +. float 550.0)
    else None
  in
  { n; flush_ms; ack_delay_ms; profile; sends; crash }

let pp_case seed =
  let c = case_of_seed seed in
  Printf.sprintf
    "seed=%d peers=%d flush=%g ack_delay=%g drop=%.2f dup=%.2f jitter=%.1f \
     sends=%d crash=%s"
    seed c.n c.flush_ms c.ack_delay_ms c.profile.drop c.profile.duplicate
    c.profile.jitter_ms (List.length c.sends)
    (match c.crash with
    | None -> "none"
    | Some (p, down, up) -> Printf.sprintf "w%d@%.1f-%.1f" (p + 1) down up)

(* Across all cases: the property must exercise what it claims to. *)
let retransmits = ref 0
let dup_suppressed = ref 0
let receiver_crashes = ref 0

let window_case seed =
  let c = case_of_seed seed in
  let names = List.init c.n (fun i -> Printf.sprintf "w%d" (i + 1)) in
  let ids = Array.of_list (List.map peer names) in
  let index p =
    let rec go i = if Net.Peer_id.equal ids.(i) p then i else go (i + 1) in
    go 0
  in
  let sim = Sim.create (mesh ~latency ~bandwidth names) in
  (* Per direction (src, dst): the keys sent and the keys delivered. *)
  let sent = Array.make_matrix c.n c.n 0 in
  let got = Array.make_matrix c.n c.n [] in
  let last_delivery = ref 0.0 in
  let tr =
    Transport.create sim ~flush_ms:c.flush_ms ~ack_delay_ms:c.ack_delay_ms
      ~send:(fun ~src ~dst m ->
        Sim.send sim ~src ~dst ~bytes:(Message.bytes m.Message.payload) m)
      ~deliver:(fun p ~src m ->
        match m.Message.payload with
        | Message.Stream { key; _ } ->
            let s = index src and d = index p in
            got.(s).(d) <- key :: got.(s).(d);
            last_delivery := Sim.now sim
        | _ -> QCheck.Test.fail_reportf "delivered a %s" (Message.tag m.payload))
  in
  let eps = Array.map (Transport.endpoint tr) ids in
  Array.iteri
    (fun i p ->
      Sim.set_handler sim p (fun ~src m -> Transport.on_message eps.(i) ~src m))
    ids;
  Sim.set_crash_hooks sim
    ~on_crash:(fun p ->
      incr receiver_crashes;
      Transport.crash eps.(index p))
    ~on_restart:ignore;
  Sim.inject sim
    (Fault.make ~profile:c.profile ~quiet_after_ms:quiet_ms
       ~events:
         (match c.crash with
         | None -> []
         | Some (p, down, up) ->
             [ Fault.Crash { peer = ids.(p); at_ms = down; restart_ms = Some up } ])
       ~seed ());
  let bytes = ref Message.envelope in
  List.iter
    (fun (at, a, b, len) ->
      let payload key =
        Message.Stream
          { key; forest = [ Xml.Tree.text (String.make len 'x') ]; final = false }
      in
      bytes := !bytes + Message.bytes (payload 0);
      Sim.after sim ~peer:ids.(a) ~delay_ms:at (fun () ->
          let key = sent.(a).(b) in
          sent.(a).(b) <- key + 1;
          Transport.send eps.(a) ~dst:ids.(b) (payload key)))
    c.sends;
  let outcome, _ = Sim.run sim in
  Array.iter
    (fun ep ->
      Option.iter
        (fun (k : Transport.counters) ->
          retransmits := !retransmits + k.retransmits;
          dup_suppressed := !dup_suppressed + k.dup_suppressed)
        (Transport.counters ep))
    eps;
  if outcome <> `Quiescent then
    QCheck.Test.fail_reportf "the simulator did not drain";
  Array.iteri
    (fun a row ->
      Array.iteri
        (fun b n ->
          let keys = List.rev got.(a).(b) in
          if keys <> List.init n Fun.id then
            QCheck.Test.fail_reportf "w%d -> w%d sent %d, delivered [%s]"
              (a + 1) (b + 1) n
              (String.concat "; " (List.map string_of_int keys)))
        row)
    sent;
  (* Once calm, a window's pending retry timer fires within a frame's
     transfer + [ack_delay_ms] + 1280 ms, and its re-ship of the whole
     window lands a transfer later.  A frame's transfer is at most that
     of every message at once. *)
  let frame_ms = latency +. (float_of_int !bytes /. bandwidth) in
  let calm =
    List.fold_left
      (fun t (at, _, _, _) -> Float.max t (at +. c.flush_ms))
      (match c.crash with Some (_, _, up) -> Float.max quiet_ms up | None -> quiet_ms)
      c.sends
  in
  let deadline = calm +. c.ack_delay_ms +. 1280.0 +. (2.0 *. frame_ms) in
  if !last_delivery > deadline then
    QCheck.Test.fail_reportf "last delivery at %.1f ms, past the bound %.1f ms"
      !last_delivery deadline;
  true

let window_property =
  QCheck.Test.make ~count:200
    ~name:"each direction delivers its sent sequence once, in order, in time"
    (QCheck.make ~print:pp_case QCheck.Gen.(int_bound 999_999))
    window_case

let suite =
  [
    QCheck_alcotest.to_alcotest window_property;
    ( "the window property retransmitted, deduplicated and crashed",
      `Quick,
      fun () ->
        Alcotest.(check bool) "retransmits" true (!retransmits > 0);
        Alcotest.(check bool) "duplicates suppressed" true (!dup_suppressed > 0);
        Alcotest.(check bool) "receiver crashes" true (!receiver_crashes > 0) );
  ]
