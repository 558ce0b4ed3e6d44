open Axml
open Helpers
module Inc = Query.Incremental

let push_all ~g state ~input trees =
  List.concat_map (fun t -> Inc.push ~gen:g state ~input t) trees

let test_single_input_deltas () =
  let g = gen () in
  let q = query {|query(1) for $x in $0//i where text($x) = "hit" return <o/>|} in
  let state = Inc.create q in
  let d1 = Inc.push ~gen:g state ~input:0 (parse ~g "<r><i>hit</i></r>") in
  Alcotest.(check int) "first delta" 1 (List.length d1);
  let d2 = Inc.push ~gen:g state ~input:0 (parse ~g "<r><i>miss</i></r>") in
  Alcotest.(check int) "no new output" 0 (List.length d2);
  let d3 = Inc.push ~gen:g state ~input:0 (parse ~g "<r><i>hit</i><i>hit</i></r>") in
  Alcotest.(check int) "two more" 2 (List.length d3)

let test_deltas_sum_to_batch () =
  let g = gen () in
  let q =
    query {|query(1) for $x in $0//i where attr($x, "k") = "y" return <hit>{text($x)}</hit>|}
  in
  let state = Inc.create q in
  let stream =
    [
      parse ~g {|<r><i k="y">1</i></r>|};
      parse ~g {|<r><i k="n">2</i></r>|};
      parse ~g {|<r><i k="y">3</i><i k="y">4</i></r>|};
    ]
  in
  let deltas = push_all ~g state ~input:0 stream in
  let batch = Inc.total_output ~gen:g state in
  check_canonical_forests "deltas = batch" batch deltas

let test_join_deltas () =
  let g = gen () in
  let q =
    query
      {|query(2) for $x in $0//l, $y in $1//r where text($x) = text($y) return <m>{text($x)}</m>|}
  in
  let state = Inc.create q in
  let d1 = Inc.push ~gen:g state ~input:0 (parse ~g "<a><l>1</l></a>") in
  Alcotest.(check int) "no partner yet" 0 (List.length d1);
  let d2 = Inc.push ~gen:g state ~input:1 (parse ~g "<b><r>1</r></b>") in
  Alcotest.(check int) "join fires" 1 (List.length d2);
  let d3 = Inc.push ~gen:g state ~input:0 (parse ~g "<a><l>1</l></a>") in
  Alcotest.(check int) "new left joins old right" 1 (List.length d3);
  let batch = Inc.total_output ~gen:g state in
  Alcotest.(check int) "total" 2 (List.length batch)

let test_join_deltas_sum_to_batch () =
  let g = gen () in
  let q =
    query
      {|query(2) for $x in $0//l, $y in $1//r where text($x) = text($y) return <m>{text($x)}</m>|}
  in
  let state = Inc.create q in
  let deltas = ref [] in
  let feed input xml =
    deltas := !deltas @ Inc.push ~gen:g state ~input (parse ~g xml)
  in
  feed 0 "<a><l>1</l><l>2</l></a>";
  feed 1 "<b><r>2</r></b>";
  feed 0 "<a><l>2</l></a>";
  feed 1 "<b><r>1</r><r>2</r></b>";
  check_canonical_forests "join deltas = batch"
    (Inc.total_output ~gen:g state)
    !deltas

let test_self_join_same_input () =
  (* Two bindings over the same input force the difference fallback. *)
  let g = gen () in
  let q =
    query
      {|query(1) for $x in $0//a, $y in $0//b where text($x) = text($y) return <m/>|}
  in
  let state = Inc.create q in
  let deltas = ref [] in
  let feed xml = deltas := !deltas @ Inc.push ~gen:g state ~input:0 (parse ~g xml) in
  feed "<r><a>1</a></r>";
  feed "<r><b>1</b></r>";
  feed "<r><a>1</a><b>2</b></r>";
  check_canonical_forests "self-join deltas = batch"
    (Inc.total_output ~gen:g state)
    !deltas

let test_push_forest () =
  let g = gen () in
  let q = query "query(1) for $x in $0//i return <o/>" in
  let state = Inc.create q in
  let out =
    Inc.push_forest ~gen:g state ~input:0
      [ parse ~g "<r><i/></r>"; parse ~g "<r><i/><i/></r>" ]
  in
  Alcotest.(check int) "forest push" 3 (List.length out)

let test_seen () =
  let g = gen () in
  let q = query "query(1) for $x in $0 return {$x}" in
  let state = Inc.create q in
  ignore (Inc.push ~gen:g state ~input:0 (parse ~g "<r/>"));
  Alcotest.(check int) "one seen" 1 (List.length (Inc.seen state 0))

let test_out_of_range_input () =
  let q = query "query(1) for $x in $0 return {$x}" in
  let state = Inc.create q in
  match Inc.push ~gen:(gen ()) state ~input:7 (parse "<r/>") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out of range"

let test_composed_incremental () =
  let g = gen () in
  let q =
    query
      {|compose { query(1) for $h in $0 return <f>{text($h)}</f> }
        ({ query(1) for $x in $0//i where text($x) = "y" return <hit>{text($x)}</hit> })|}
  in
  let state = Inc.create q in
  let deltas = ref [] in
  let feed xml = deltas := !deltas @ Inc.push ~gen:g state ~input:0 (parse ~g xml) in
  feed "<r><i>y</i></r>";
  feed "<r><i>n</i></r>";
  feed "<r><i>y</i></r>";
  check_canonical_forests "composed deltas = batch"
    (Inc.total_output ~gen:g state)
    !deltas;
  Alcotest.(check int) "two outputs" 2 (List.length !deltas)

(* A continuous query keeps an input's index only once a second
   evaluation reads the input, and counts every build.  A join whose
   second input arrives first waits (no evaluation, no build); the
   first input's arrival then walks both inputs — each binding has one
   descendant step, so one evaluation reads each input once — and
   builds nothing.  The next arrival on the first input reads the
   waiting input again: its index is built then, once, and counted in
   query/index_builds.  Later arrivals on that input extend its index
   (no rebuild), and the evaluations after them are served from its
   postings. *)
let test_join_index_kept_on_second_read () =
  let g = gen () in
  let q =
    query
      {|query(2) for $x in $0//l, $y in $1//r where text($x) = text($y) return <m>{text($x)}</m>|}
  in
  let side root kid n =
    parse ~g
      (Printf.sprintf "<%s>%s</%s>" root
         (String.concat ""
            (List.init n (fun i -> Printf.sprintf "<%s>%d</%s>" kid i kid)))
         root)
  in
  let left = side "a" "l" 70 and right = side "b" "r" 70 in
  Alcotest.(check bool)
    "each input is over the threshold" true
    (Xml.Tree.size left >= 128 && Xml.Tree.size right >= 128);
  let counter name =
    Obs.Metrics.counter_value Obs.Metrics.default ~subsystem:"query" name
  in
  let builds () = counter "index_builds" and hits () = counter "index_hits" in
  let threshold = Query.Compile.index_threshold () in
  Obs.Metrics.set_enabled Obs.Metrics.default true;
  Obs.Metrics.reset Obs.Metrics.default;
  Query.Compile.set_index_threshold 128;
  Fun.protect
    ~finally:(fun () ->
      Query.Compile.set_index_threshold threshold;
      Obs.Metrics.set_enabled Obs.Metrics.default false;
      Obs.Metrics.reset Obs.Metrics.default)
    (fun () ->
      let state = Inc.create q in
      let push input tree = Inc.push ~gen:g state ~input tree in
      let d1 = push 1 right in
      Alcotest.(check int) "no partner yet" 0 (List.length d1);
      Alcotest.(check int) "a waiting push builds nothing" 0 (builds ());
      let d2 = push 0 left in
      Alcotest.(check int) "every pair joins" 70 (List.length d2);
      Alcotest.(check int) "one read of each input builds nothing" 0
        (builds ());
      Alcotest.(check int) "walked, not served from postings" 0 (hits ());
      let d3 = push 0 (side "a" "l" 5) in
      Alcotest.(check int) "five more pairs" 5 (List.length d3);
      Alcotest.(check int) "second read builds the waiting input's index" 1
        (builds ());
      Alcotest.(check int) "and reads its postings" 1 (hits ());
      let d4 = push 1 (side "b" "r" 2) in
      Alcotest.(check int) "r0 and r1 meet both left trees" 4
        (List.length d4);
      let d5 = push 0 (side "a" "l" 2) in
      Alcotest.(check int) "l0 and l1 meet both right trees" 4
        (List.length d5);
      Alcotest.(check int) "the arrival extended the index: no rebuild" 1
        (builds ());
      (* One hit per tree of the indexed input: its two trees. *)
      Alcotest.(check int) "both trees served from the extended index" 3
        (hits ());
      check_canonical_forests "deltas = batch"
        (Inc.total_output ~gen:g state)
        (d1 @ d2 @ d3 @ d4 @ d5))

let suite =
  [
    ("single input deltas", `Quick, test_single_input_deltas);
    ("deltas sum to batch", `Quick, test_deltas_sum_to_batch);
    ("join deltas", `Quick, test_join_deltas);
    ("join deltas sum to batch", `Quick, test_join_deltas_sum_to_batch);
    ("self-join fallback", `Quick, test_self_join_same_input);
    ("push forest", `Quick, test_push_forest);
    ("seen bookkeeping", `Quick, test_seen);
    ("input range check", `Quick, test_out_of_range_input);
    ("composed query incremental", `Quick, test_composed_incremental);
    ("join: an input index is kept from its second read", `Quick,
      test_join_index_kept_on_second_read);
  ]
