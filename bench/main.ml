(* The experiment registry's command line.

     dune exec bench/main.exe                      every entry, full size
     dune exec bench/main.exe -- --smoke           smoke tiers where defined
     dune exec bench/main.exe -- --only E21,E22    a subset

   Each entry prints its tables and gate verdicts and writes
   BENCH_<id>.json, then BENCH_summary.json is re-merged.  Exits 1 when
   any gate fails, 2 on a bad command line. *)

open Axml_bench

let () =
  let usage msg =
    prerr_endline ("main.exe [--only ID[,ID...]] [--smoke]: " ^ msg);
    exit 2
  in
  let rec parse only smoke = function
    | [] -> (only, smoke)
    | "--smoke" :: rest -> parse only true rest
    | "--only" :: ids :: rest -> parse (only @ String.split_on_char ',' ids) smoke rest
    | arg :: _ -> usage ("unexpected " ^ arg)
  in
  let only, smoke = parse [] false (List.tl (Array.to_list Sys.argv)) in
  let ids = List.map (fun (Runner.E e) -> e.id) Registry.all in
  List.iter
    (fun id ->
      if not (List.mem id ids) then
        usage ("unknown entry " ^ id ^ "; known: " ^ String.concat "," ids))
    only;
  print_endline "AXML framework experiment harness (see EXPERIMENTS.md)";
  exit (if Runner.run_all ~only ~smoke Registry.all then 0 else 1)
