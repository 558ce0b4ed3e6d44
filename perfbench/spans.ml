(* Spans the benchmark records around its own calls into the program's
   public functions.  A span keeps its name, parent, rep and request id,
   process-CPU start and end, minor and promoted word counts at both
   ends, and any counters its caller reads through public APIs when it
   ends.  Recording is off unless [enabled] is set (the traced run);
   the disabled path calls the thunk and nothing else.  Spans stay in
   memory and are written once, at the end of the run. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a top-level span. *)
  name : string;
  rep : int;
  request : int;  (** [-1] when the span is not tied to one request. *)
  cpu_start : float;
  mutable cpu_end : float;
  minor_start : float;
  mutable minor_end : float;
  promoted_start : float;
  mutable promoted_end : float;
  mutable counters : (string * float) list;
}

let enabled = ref false
let current_rep = ref 0
let recorded : span list ref = ref []
let open_spans : span list ref = ref []
let next_id = ref 0

let with_span ?(request = -1) ?(counters = fun () -> []) name f =
  if not !enabled then f ()
  else begin
    let parent = match !open_spans with s :: _ -> s.id | [] -> -1 in
    let minor, promoted, _ = Gc.counters () in
    let s =
      {
        id = !next_id;
        parent;
        name;
        rep = !current_rep;
        request;
        cpu_start = Sys.time ();
        cpu_end = nan;
        minor_start = minor;
        minor_end = nan;
        promoted_start = promoted;
        promoted_end = nan;
        counters = [];
      }
    in
    incr next_id;
    open_spans := s :: !open_spans;
    let close () =
      let minor, promoted, _ = Gc.counters () in
      s.cpu_end <- Sys.time ();
      s.minor_end <- minor;
      s.promoted_end <- promoted;
      s.counters <- counters ();
      open_spans := List.tl !open_spans;
      recorded := s :: !recorded
    in
    Fun.protect ~finally:close f
  end

let all () = List.rev !recorded
let duration s = s.cpu_end -. s.cpu_start
let minor_words s = s.minor_end -. s.minor_start
let promoted_words s = s.promoted_end -. s.promoted_start

(* Length of [lo, hi] covered by the union of [intervals]: overlapping
   children must not be subtracted twice. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  fst
    (List.fold_left
       (fun (total, reach) (a, b) ->
         let a = Float.max a reach in
         if b > a then (total +. (b -. a), b) else (total, reach))
       (0.0, lo)
       (List.sort compare clipped))

(* A span's self time: its duration minus the part of its interval
   that its children cover. *)
let self_time span children =
  duration span
  -. covered ~lo:span.cpu_start ~hi:span.cpu_end
       (List.map (fun c -> (c.cpu_start, c.cpu_end)) children)

type summary = {
  count : int;
  total_s : float;
  self_s : float;
  minor : float;
  promoted : float;
}

(* Per-name totals over [spans], in first-seen order. *)
let summarize spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  let order = ref [] and acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let prev =
        match Hashtbl.find_opt acc s.name with
        | Some p -> p
        | None ->
            order := s.name :: !order;
            { count = 0; total_s = 0.0; self_s = 0.0; minor = 0.0; promoted = 0.0 }
      in
      Hashtbl.replace acc s.name
        {
          count = prev.count + 1;
          total_s = prev.total_s +. duration s;
          self_s = prev.self_s +. self_time s (Hashtbl.find_all children s.id);
          minor = prev.minor +. minor_words s;
          promoted = prev.promoted +. promoted_words s;
        })
    spans;
  List.rev_map (fun n -> (n, Hashtbl.find acc n)) !order

let write path spans =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"parent\": %d, \"name\": %S, \"rep\": %d, \"request\": %d, \
         \"cpu_start_s\": %.9f, \"cpu_end_s\": %.9f, \"minor_words\": %.0f, \
         \"promoted_words\": %.0f, \"counters\": {%s}}\n"
        s.id s.parent s.name s.rep s.request s.cpu_start s.cpu_end (minor_words s)
        (promoted_words s)
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%S: %.17g" k v) s.counters)))
    spans
