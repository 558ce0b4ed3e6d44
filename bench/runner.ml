(* The experiment registry's runner.

   An entry is one claim: a scenario builder ([run]) over a tier (the
   experiment's size), named arms (the System knobs it compares) and
   named gates over the tables the run emits.  The runner owns
   everything else: the measurement bracket, table printing, the
   BENCH_<id>.json artifact, the merged BENCH_summary.json and the
   verdict that fails the run. *)

open Axml

(* --- cells, rows, tables ------------------------------------------ *)

type value = Int of int | Float of float | Str of string | Bool of bool

(* A typed value plus how the printed table shows it; JSON writes the
   value. *)
type cell = { v : value; show : string }
type row = (string * cell) list

let fmt_bytes b =
  if b >= 1_000_000 then Printf.sprintf "%.1fMB" (float_of_int b /. 1e6)
  else if b >= 10_000 then Printf.sprintf "%.1fkB" (float_of_int b /. 1e3)
  else Printf.sprintf "%dB" b

let int n = { v = Int n; show = string_of_int n }
let num fmt x = { v = Float x; show = Printf.sprintf fmt x }
let str s = { v = Str s; show = s }
let flag b = { v = Bool b; show = (if b then "yes" else "NO") }
let bytes n = { v = Int n; show = fmt_bytes n }
let ms = num "%.1f"
let ratio = num "%.1fx"
let pct x = { v = Float x; show = Printf.sprintf "%.0f%%" (x *. 100.0) }
let digest s = { v = Str s; show = String.sub s 0 (min 12 (String.length s)) }

let get (r : row) col =
  match List.assoc_opt col r with
  | Some c -> c.v
  | None -> invalid_arg ("Runner: no column " ^ col)

let geti r col = match get r col with Int n -> n | _ -> invalid_arg col

let getf r col =
  match get r col with
  | Float x -> x
  | Int n -> float_of_int n
  | _ -> invalid_arg col

let gets r col = match get r col with Str s -> s | _ -> invalid_arg col
let getb r col = match get r col with Bool b -> b | _ -> invalid_arg col

(* --- gates -------------------------------------------------------- *)

(* A gate judges one table.  SLO gates are the service-level half: the
   bench treats every gate as hard, the CLI aliases exit 3 on them only
   under --slo. *)
type gate = { name : string; table : string; slo : bool; holds : row list -> bool }

let gate ?(table = "rows") ?(slo = false) name holds = { name; table; slo; holds }

(* Every row's boolean [col] is true. *)
let every col rows = List.for_all (fun r -> getb r col) rows

(* Every row agrees on [col]. *)
let same col = function
  | [] -> false
  | r :: rest -> List.for_all (fun r' -> get r' col = get r col) rest

(* For every row of arm [a], the row of arm [b] in the same group
   (equal on the [by] columns) exists and [ok a_row b_row] holds. *)
let pairs ?(by = []) a b ok rows =
  let arm r = gets r "arm" and key r = List.map (get r) by in
  List.for_all
    (fun ra ->
      arm ra <> a
      || List.exists (fun rb -> arm rb = b && key rb = key ra && ok ra rb) rows)
    rows

(* --- entries ------------------------------------------------------ *)

type ('tier, 'arm) entry = {
  id : string;
  title : string;
  about : string;
  smoke : 'tier option;
  full : 'tier;
  arms : (string * 'arm) list;
  run : 'tier -> (string * 'arm) list -> unit;
  gates : gate list;
}

type packed = E : (_, _) entry -> packed

(* --- the measurement bracket -------------------------------------- *)

type cost = { wall_s : float; words : float }

(* Two full majors first, so an arm's wall time does not pay to
   collect the previous arm's garbage.  Gc.minor_words is the precise
   allocation counter. *)
let measure f =
  Gc.full_major ();
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let t0 = Sys.time () in
  let r = f () in
  let wall_s = Sys.time () -. t0 in
  (r, { wall_s; words = Gc.minor_words () -. w0 })

(* CPU milliseconds of [f ()] without settling the heap first: for
   timings inside a sweep, where two full majors per call would cost
   more than the call. *)
let cpu_ms f =
  let t0 = Sys.time () in
  let r = f () in
  (r, (Sys.time () -. t0) *. 1000.0)

(* --- printing ----------------------------------------------------- *)

(* Silences the runner's own printing (axmlctl top --json). *)
let quiet = ref false
let say fmt = Printf.ksprintf (fun s -> if not !quiet then print_string s) fmt

let section title =
  let bar = String.make (String.length title + 4) '=' in
  say "\n%s\n| %s |\n%s\n" bar title bar

let print_table ?show rows =
  match rows with
  | [] -> ()
  | r0 :: _ ->
      let cols =
        List.filter
          (fun c -> match show with None -> true | Some s -> List.mem c s)
          (List.map fst r0)
      in
      let cells r = List.map (fun c -> (List.assoc c r).show) cols in
      let widths =
        List.fold_left
          (fun ws r -> List.map2 (fun w s -> max w (String.length s)) ws (cells r))
          (List.map String.length cols) rows
      in
      let line cs =
        List.iteri
          (fun i (w, s) ->
            if i = 0 then say "  %-*s" w s else say "  %*s" w s)
          (List.combine widths cs);
        say "\n"
      in
      line cols;
      line (List.map (fun w -> String.make w '-') widths);
      List.iter (fun r -> line (cells r)) rows

(* The tables the running entry has emitted, newest first. *)
let emitted : (string * row list) list ref = ref []

(* Emit a table: printed now ([show] picks the printed columns), kept
   whole for the gates and the JSON artifact. *)
let table ?(name = "rows") ?show rows =
  emitted := (name, rows) :: !emitted;
  if name <> "rows" then say "[%s]\n" name;
  print_table ?show rows

(* --- running ------------------------------------------------------ *)

type result = { tables : (string * row list) list; verdicts : (gate * bool) list }

let run ?(smoke = false) ?arms e tier =
  section (e.id ^ "  " ^ e.title ^ if smoke then " (smoke)" else "");
  if e.about <> "" then say "%s\n\n" e.about;
  emitted := [];
  e.run tier (Option.value arms ~default:e.arms);
  let tables = List.rev !emitted in
  let verdicts =
    List.map
      (fun g ->
        let rows = List.assoc_opt g.table tables in
        (g, match rows with Some rs -> g.holds rs | None -> false))
      e.gates
  in
  say "\n";
  List.iter
    (fun (g, ok) ->
      say "gate %s  %s%s\n" (if ok then "ok  " else "FAIL") g.name
        (if g.slo then " (slo)" else ""))
    verdicts;
  { tables; verdicts }

let passed r = List.for_all snd r.verdicts

(* axmlctl's exit codes: 3 when --slo and any gate failed, 1 when an
   invariant (non-SLO) gate failed. *)
let exit_code ~slo r =
  if passed r then 0
  else if slo then 3
  else if List.exists (fun (g, ok) -> (not ok) && not g.slo) r.verdicts then 1
  else 0

(* --- JSON --------------------------------------------------------- *)

let json_f x = if Float.is_finite x then Printf.sprintf "%.6g" x else "null"
let json_s s = "\"" ^ Obs.Exporter.json_escape s ^ "\""
let json_obj kvs =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_s k ^ ": " ^ v) kvs) ^ "}"

let json_arr xs = "[" ^ String.concat ", " xs ^ "]"

let json_value = function
  | Int n -> string_of_int n
  | Float x -> json_f x
  | Str s -> json_s s
  | Bool b -> string_of_bool b

let json ~id ~smoke r =
  json_obj
    ([ ("experiment", json_s id); ("smoke", string_of_bool smoke) ]
    @ List.map
        (fun (name, rows) ->
          let row r = json_obj (List.map (fun (k, c) -> (k, json_value c.v)) r) in
          (name, json_arr (List.map row rows)))
        r.tables
    @ [
        ( "gates",
          json_arr
            (List.map
               (fun (g, ok) ->
                 json_obj
                   [
                     ("gate", json_s g.name);
                     ("slo", string_of_bool g.slo);
                     ("ok", string_of_bool ok);
                   ])
               r.verdicts) );
      ])

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc contents;
      output_char oc '\n')

(* The members of a previous summary's "experiments" object as raw
   (id, JSON object text) pairs.  Entries whose artifact file is gone
   must survive a re-run of any one experiment, so the summary is a
   merge, never a rebuild.  Strings are skipped escape-aware, objects by
   bracket balance; any trouble means "no previous entries" — the
   summary is derived, never an input. *)
let previous_entries path =
  try
    let s = read_file path in
    let rec ws i = if String.contains " \t\r\n" s.[i] then ws (i + 1) else i in
    (* [i] just past an opening quote; returns just past the closing one. *)
    let rec str_end i =
      match s.[i] with '"' -> i + 1 | '\\' -> str_end (i + 2) | _ -> str_end (i + 1)
    in
    (* [i] inside a bracket opened at depth [d]; returns just past it. *)
    let rec close d i =
      match s.[i] with
      | '"' -> close d (str_end (i + 1))
      | '{' | '[' -> close (d + 1) (i + 1)
      | '}' | ']' -> if d = 1 then i + 1 else close (d - 1) (i + 1)
      | _ -> close d (i + 1)
    in
    let key = "\"experiments\"" in
    let rec find i =
      if String.sub s i (String.length key) = key then i + String.length key
      else find (i + 1)
    in
    let colon = ws (find 0) in
    let o = ws (colon + 1) in
    if s.[colon] <> ':' || s.[o] <> '{' then raise Exit;
    let rec members acc i =
      let k0 = ws i in
      match s.[k0] with
      | '}' -> List.rev acc
      | ',' -> members acc (k0 + 1)
      | '"' ->
          let k1 = str_end (k0 + 1) in
          let c = ws k1 in
          let v0 = ws (c + 1) in
          if s.[c] <> ':' || s.[v0] <> '{' then raise Exit;
          let v1 = close 1 (v0 + 1) in
          let id = String.sub s (k0 + 1) (k1 - k0 - 2) in
          members ((id, String.sub s v0 (v1 - v0)) :: acc) v1
      | _ -> raise Exit
    in
    members [] (o + 1)
  with _ -> []

(* BENCH_summary.json: one envelope keyed by entry id, embedding every
   BENCH_<id>.json in the directory merged over the previous summary
   (files on disk win). *)
let write_summary () =
  let disk =
    Sys.readdir "." |> Array.to_list
    |> List.filter_map (fun f ->
           match Filename.chop_suffix_opt ~suffix:".json" f with
           | Some base
             when String.starts_with ~prefix:"BENCH_" base && base <> "BENCH_summary" ->
               let id = String.sub base 6 (String.length base - 6) in
               Some (id, String.trim (read_file f))
           | _ -> None)
  in
  let merged =
    List.fold_left
      (fun acc (k, v) -> (k, v) :: List.remove_assoc k acc)
      (previous_entries "BENCH_summary.json")
      disk
    |> List.sort compare
  in
  write_file "BENCH_summary.json"
    (json_obj [ ("schema_version", "3"); ("experiments", json_obj merged) ])

(* Run the selected entries (all when [only] is empty) at smoke size
   where an entry has a smoke tier, writing each artifact and the
   summary; true when every gate held. *)
let run_all ~only ~smoke entries =
  List.fold_left
    (fun ok (E e) ->
      if only <> [] && not (List.mem e.id only) then ok
      else begin
        let tier, smoke =
          match e.smoke with Some t when smoke -> (t, true) | _ -> (e.full, false)
        in
        let r = run ~smoke e tier in
        write_file ("BENCH_" ^ e.id ^ ".json") (json ~id:e.id ~smoke r);
        write_summary ();
        say "wrote BENCH_%s.json and BENCH_summary.json\n" e.id;
        ok && passed r
      end)
    true entries
