(* The experiment registry under its own gates: every entry with a
   smoke tier runs at that size and each of its gates must hold, and a
   toy entry with a failing gate must be reported as a failure — the
   verdict bench/main.exe and axmlctl turn into exit codes. *)

open Axml_bench
open Runner

let smoke_case (E e) =
  Option.map
    (fun tier ->
      Alcotest.test_case (e.id ^ " smoke: every gate holds") `Quick (fun () ->
          let r = run ~smoke:true e tier in
          List.iter
            (fun (g, ok) ->
              if not ok then Alcotest.failf "%s: gate failed: %s" e.id g.name)
            r.verdicts))
    e.smoke

let toy : (unit, unit) entry =
  {
    id = "toy";
    title = "a gate that cannot hold";
    about = "";
    smoke = Some ();
    full = ();
    arms = [];
    run = (fun () _ -> table [ [ ("x", int 1) ] ]);
    gates =
      [
        gate "x is one" (List.for_all (fun r -> geti r "x" = 1));
        gate "x is two" (List.for_all (fun r -> geti r "x" = 2));
        gate ~slo:true "x is three" (List.for_all (fun r -> geti r "x" = 3));
      ];
  }

let test_failing_gate () =
  let r = run toy () in
  Alcotest.(check (list bool))
    "verdicts" [ true; false; false ] (List.map snd r.verdicts);
  Alcotest.(check bool) "run fails" false (passed r);
  Alcotest.(check int) "invariant failure exits 1" 1 (exit_code ~slo:false r);
  Alcotest.(check int) "any failure under --slo exits 3" 3 (exit_code ~slo:true r);
  let slo_only = run { toy with gates = [ List.nth toy.gates 2 ] } () in
  Alcotest.(check int) "an SLO gate alone passes without --slo" 0
    (exit_code ~slo:false slo_only)

(* What bench/main.exe runs: the failing toy makes [run_all] false (exit
   1) after writing its artifact and the summary, in a scratch dir. *)
let test_run_all_fails () =
  let cwd = Sys.getcwd () in
  let dir = Filename.temp_dir "axml-bench" "" in
  Sys.chdir dir;
  let ok =
    Fun.protect ~finally:(fun () -> Sys.chdir cwd) (fun () ->
        run_all ~only:[] ~smoke:true [ E toy ])
  in
  Alcotest.(check bool) "run_all fails" false ok;
  List.iter
    (fun f ->
      Alcotest.(check bool) f true (Sys.file_exists (Filename.concat dir f));
      Sys.remove (Filename.concat dir f))
    [ "BENCH_toy.json"; "BENCH_summary.json" ];
  Sys.rmdir dir

(* A gate naming a table the run never emitted fails rather than
   holding vacuously. *)
let test_missing_table () =
  let vacuous = gate ~table:"absent" "vacuous" (fun _ -> true) in
  let r = run { toy with gates = [ vacuous ] } () in
  Alcotest.(check bool) "fails" false (passed r)

let suite =
  List.filter_map smoke_case Registry.all
  @ [
      Alcotest.test_case "a failing gate fails the run" `Quick test_failing_gate;
      Alcotest.test_case "a failing gate fails run_all" `Quick test_run_all_fails;
      Alcotest.test_case "a gate over a missing table fails" `Quick test_missing_table;
    ]
