(* Web-scale harness coverage: the Pqueue hot-loop API, end-to-end
   determinism of the refactored System/Stats/Sim hot paths, and the
   flash-crowd scenario behind bench E20 / [axmlctl scale].

   The determinism tests are the contract the refactor had to keep:
   two runs of the same workload with the same seed must agree on the
   Σ fingerprint, the full statistics snapshot (per-link breakdown
   included) and the message trace, byte for byte. *)

open Axml
module Pqueue = Net.Pqueue
module System = Runtime.System
module Scenarios = Workload.Scenarios

(* --- Pqueue: take/last_time, cancellation ------------------------ *)

let test_take_matches_pop () =
  let mk () =
    let q = Pqueue.create () in
    List.iter
      (fun (t, v) -> Pqueue.push q ~time:t v)
      [ (3.0, "c"); (1.0, "a"); (1.0, "a2"); (2.0, "b"); (0.5, "z") ];
    q
  in
  let via_pop =
    let q = mk () in
    let rec drain acc =
      match Pqueue.pop q with
      | None -> List.rev acc
      | Some (t, v) -> drain ((t, v) :: acc)
    in
    drain []
  in
  let via_take =
    let q = mk () in
    let rec drain acc =
      match Pqueue.take q with
      | exception Pqueue.Empty -> List.rev acc
      | v -> drain ((Pqueue.last_time q, v) :: acc)
    in
    drain []
  in
  Alcotest.(check (list (pair (float 0.0) string)))
    "take drains in the same order as pop" via_pop via_take

let test_fifo_among_equal_times () =
  let q = Pqueue.create () in
  (* Interleave heap and ring paths: a strictly earlier push after the
     equal-time run forces the run into the heap. *)
  List.iter (fun s -> Pqueue.push q ~time:5.0 s) [ "a"; "b"; "c" ];
  Pqueue.push q ~time:1.0 "first";
  List.iter (fun s -> Pqueue.push q ~time:5.0 s) [ "d"; "e" ];
  let order =
    List.init 6 (fun _ -> snd (Option.get (Pqueue.pop q)))
  in
  Alcotest.(check (list string))
    "insertion order wins among equal times"
    [ "first"; "a"; "b"; "c"; "d"; "e" ]
    order

let test_cancelled_excluded_from_length () =
  let q = Pqueue.create () in
  let cancels =
    List.init 10 (fun i -> Pqueue.push_removable q ~time:(float_of_int i) i)
  in
  Alcotest.(check int) "all live" 10 (Pqueue.length q);
  (* Cancel the even entries; idempotence: cancel twice. *)
  List.iteri
    (fun i c ->
      if i mod 2 = 0 then begin
        c ();
        c ()
      end)
    cancels;
  Alcotest.(check int) "evens gone" 5 (Pqueue.length q);
  let popped =
    let rec drain acc =
      match Pqueue.pop q with
      | None -> List.rev acc
      | Some (_, v) -> drain (v :: acc)
    in
    drain []
  in
  Alcotest.(check (list int)) "only odd survivors, in order"
    [ 1; 3; 5; 7; 9 ] popped;
  Alcotest.(check int) "empty afterwards" 0 (Pqueue.length q)

let test_compaction_preserves_order () =
  (* Cancel two thirds of the heap, each cancel removing its entry at
     once, then verify the survivors still drain in (time, insertion)
     order. *)
  let q = Pqueue.create () in
  let n = 200 in
  let cancels =
    List.init n (fun i ->
        (i, Pqueue.push_removable q ~time:(float_of_int (i mod 7)) i))
  in
  List.iter (fun (i, c) -> if i mod 3 <> 0 then c ()) cancels;
  let survivors = List.filter (fun i -> i mod 3 = 0) (List.init n Fun.id) in
  Alcotest.(check int) "live count after mass cancel"
    (List.length survivors) (Pqueue.length q);
  let popped =
    let rec drain acc =
      match Pqueue.pop q with
      | None -> List.rev acc
      | Some (t, v) -> drain ((t, v) :: acc)
    in
    drain []
  in
  let expected =
    (* Stable sort by time keeps insertion order among equal times,
       which is exactly the queue's contract. *)
    List.stable_sort
      (fun (t1, _) (t2, _) -> compare (t1 : float) t2)
      (List.map (fun i -> (float_of_int (i mod 7), i)) survivors)
  in
  Alcotest.(check (list (pair (float 0.0) int)))
    "compaction preserves (time, insertion) order" expected popped

let test_cancel_after_pop_is_noop () =
  let q = Pqueue.create () in
  let cancel = Pqueue.push_removable q ~time:1.0 "x" in
  Pqueue.push q ~time:2.0 "y";
  Alcotest.(check (option string)) "pop x" (Some "x")
    (Option.map snd (Pqueue.pop q));
  cancel ();
  Alcotest.(check int) "y still live" 1 (Pqueue.length q);
  Alcotest.(check (option string)) "y pops" (Some "y")
    (Option.map snd (Pqueue.pop q))

(* --- Pqueue against a sorted-list model -------------------------- *)

type pq_op =
  | Push of float
  | Push_removable of float
  | Cancel of int
      (** the [k mod n]th of the [n] handles so far: it may have been
          cancelled or popped already *)
  | Pop
  | Take
  | Peek_time
  | Length

let pp_pq_op = function
  | Push t -> Printf.sprintf "push %g" t
  | Push_removable t -> Printf.sprintf "push_removable %g" t
  | Cancel k -> Printf.sprintf "cancel %d" k
  | Pop -> "pop"
  | Take -> "take"
  | Peek_time -> "peek_time"
  | Length -> "length"

(* Times on a 0.5 ms grid over [0, 4]: equal-time runs are common, so
   pushes go through the same-time ring and [push_removable] flushes
   it. *)
let pq_ops_arb =
  let open QCheck.Gen in
  let time = map (fun k -> 0.5 *. float_of_int k) (int_bound 8) in
  let op =
    frequency
      [
        (3, map (fun t -> Push t) time);
        (3, map (fun t -> Push_removable t) time);
        (3, map (fun k -> Cancel k) nat);
        (2, return Pop);
        (2, return Take);
        (1, return Peek_time);
        (1, return Length);
      ]
  in
  QCheck.make ~print:(QCheck.Print.list pp_pq_op) ~shrink:QCheck.Shrink.list
    (list_size (0 -- 300) op)

(* Replay [ops] on a queue and on a list of (time, insertion index)
   kept sorted, the queue's contract; every observation, and a final
   drain, must agree. *)
let pqueue_matches_model ops =
  let q = Pqueue.create () in
  let model = ref [] and next_id = ref 0 in
  let handles = Array.make (List.length ops) (-1, ignore) in
  let n_handles = ref 0 in
  let insert time =
    let id = !next_id in
    incr next_id;
    model := List.merge compare !model [ (time, id) ];
    id
  in
  let model_pop () =
    match !model with
    | [] -> None
    | x :: rest ->
        model := rest;
        Some x
  in
  let step = function
    | Push time ->
        Pqueue.push q ~time (insert time);
        true
    | Push_removable time ->
        let id = insert time in
        handles.(!n_handles) <- (id, Pqueue.push_removable q ~time id);
        incr n_handles;
        true
    | Cancel k ->
        if !n_handles > 0 then begin
          let id, cancel = handles.(k mod !n_handles) in
          cancel ();
          model := List.filter (fun (_, i) -> i <> id) !model
        end;
        true
    | Pop -> Pqueue.pop q = model_pop ()
    | Take -> (
        let expected = model_pop () in
        match Pqueue.take q with
        | exception Pqueue.Empty -> expected = None
        | id -> expected = Some (Pqueue.last_time q, id))
    | Peek_time ->
        Pqueue.peek_time q = Option.map fst (List.nth_opt !model 0)
    | Length -> Pqueue.length q = List.length !model
  in
  let rec drain () =
    match (Pqueue.pop q, model_pop ()) with
    | None, None -> true
    | got, expected -> got = expected && drain ()
  in
  List.for_all step ops && drain ()

let pqueue_model_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500
       ~name:"pqueue: random push/cancel/pop ≡ sorted model" pq_ops_arb
       pqueue_matches_model)

(* --- Determinism of the refactored hot paths ---------------------- *)

(* Run one V-series base plan on a fresh system with tracing on and
   return everything observable: emitted results (canonical), the Σ
   fingerprint, the stats snapshot and the rendered transmissions. *)
let observe_plan plan =
  let sys, _ = Test_rules_exec.build_system () in
  Helpers.with_tracing @@ fun () ->
  let out = Runtime.Exec.run_to_quiescence sys ~ctx:(Helpers.peer "p1") plan in
  let results =
    List.map Xml.Canonical.fingerprint out.Runtime.Exec.results
  in
  let trace = List.map (Format.asprintf "%a" Net.Sim.pp_xfer) (Helpers.xfers ()) in
  (results, System.fingerprint sys, System.stats sys, trace)

let test_plan_determinism () =
  let sys0, inbox_id = Test_rules_exec.build_system () in
  ignore sys0;
  List.iter
    (fun (name, plan) ->
      let r1, f1, s1, t1 = observe_plan plan in
      let r2, f2, s2, t2 = observe_plan plan in
      Alcotest.(check (list string)) (name ^ ": results") r1 r2;
      Alcotest.(check string) (name ^ ": fingerprint") f1 f2;
      Alcotest.(check bool) (name ^ ": stats snapshot") true (s1 = s2);
      Alcotest.(check (list string)) (name ^ ": trace") t1 t2)
    (Test_rules_exec.base_plans inbox_id)

let run_flash_crowd ~seed ~mirrors ~subscribers ~requests =
  let fc =
    Scenarios.flash_crowd ~mirrors ~subscribers
      ~requests_per_subscriber:requests ~seed ()
  in
  let sys = fc.Scenarios.fc_system in
  let budget = (8 * fc.Scenarios.fc_requests) + 10_000 in
  let outcome, events = System.run ~max_events:budget sys in
  (fc, sys, outcome, events)

let test_flash_crowd_smoke () =
  let fc, sys, outcome, _ =
    run_flash_crowd ~seed:7 ~mirrors:2 ~subscribers:4 ~requests:3
  in
  Alcotest.(check bool) "quiescent" true (outcome = `Quiescent);
  Alcotest.(check int) "all requests issued and completed"
    fc.Scenarios.fc_requests !(fc.Scenarios.fc_completed);
  Alcotest.(check int) "none unserved" 0 !(fc.Scenarios.fc_unserved);
  Alcotest.(check int) "requests = subscribers * per-subscriber" 12
    fc.Scenarios.fc_requests;
  let snap = System.stats sys in
  Alcotest.(check bool) "remote traffic flowed" true
    (snap.Net.Stats.messages > 0 && snap.Net.Stats.bytes > 0)

let flash_crowd_fingerprint ~seed =
  let fc, sys, _, events =
    run_flash_crowd ~seed ~mirrors:2 ~subscribers:3 ~requests:2
  in
  let snap = System.stats sys in
  ( System.fingerprint sys,
    System.now_ms sys,
    events,
    snap,
    !(fc.Scenarios.fc_completed) )

let flash_crowd_deterministic =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:15 ~name:"flash_crowd.same-seed-same-run"
       (QCheck.make ~print:string_of_int QCheck.Gen.(1 -- 100_000))
       (fun seed ->
         let f1, now1, ev1, s1, c1 = flash_crowd_fingerprint ~seed in
         let f2, now2, ev2, s2, c2 = flash_crowd_fingerprint ~seed in
         f1 = f2 && now1 = now2 && ev1 = ev2 && s1 = s2 && c1 = c2))

let suite =
  [
    Alcotest.test_case "pqueue: take drains like pop" `Quick
      test_take_matches_pop;
    Alcotest.test_case "pqueue: FIFO among equal times" `Quick
      test_fifo_among_equal_times;
    Alcotest.test_case "pqueue: cancellation excluded from length" `Quick
      test_cancelled_excluded_from_length;
    Alcotest.test_case "pqueue: compaction preserves order" `Quick
      test_compaction_preserves_order;
    Alcotest.test_case "pqueue: cancel after pop is a no-op" `Quick
      test_cancel_after_pop_is_noop;
    pqueue_model_prop;
    Alcotest.test_case "determinism: V-series plans replay identically"
      `Quick test_plan_determinism;
    Alcotest.test_case "flash crowd: smoke" `Quick test_flash_crowd_smoke;
    flash_crowd_deterministic;
  ]
