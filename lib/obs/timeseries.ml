(* Sim-clock-aligned windowed aggregates.

   Each registered key owns a fixed ring of windows; a window covers
   [epoch * window_ms, (epoch + 1) * window_ms) of the driving clock
   (virtual sim time in the runtime) and aggregates count/sum/min/max
   plus a mergeable log-scale histogram (the {!Metrics} bucket
   geometry), so p50/p95/p99 over any span of recent windows come from
   merging bucket counts.  Overwriting on wrap-around keeps memory
   fixed per key regardless of run length.

   Everything is deterministic: windows are keyed by the virtual
   clock, not wall time, and {!snapshot} orders keys lexicographically
   — two same-seed runs produce byte-identical snapshots.  The
   disabled hot path is one boolean load and allocates nothing (the
   E16 invariant), mirroring the pre-resolved {!Metrics} handles. *)

type window = {
  mutable epoch : int;  (* -1 = slot never filled *)
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  buckets : int array;
}

type series = { skey : string; ring : window array }

type t = {
  tbl : (string, series) Hashtbl.t;
  mutable enabled : bool;
  mutable gen : int;
      (* Bumped on [reset]: outstanding handles re-resolve lazily. *)
  mutable window_ms : float;
  ring_size : int;
  mutable clock : unit -> float;
}

let fresh_window () =
  {
    epoch = -1;
    count = 0;
    sum = 0.0;
    min_v = infinity;
    max_v = neg_infinity;
    buckets = Array.make Metrics.hist_buckets 0;
  }

let create ?(window_ms = 100.0) ?(ring = 64) () =
  if window_ms <= 0.0 then invalid_arg "Timeseries.create: window_ms <= 0";
  if ring < 2 then invalid_arg "Timeseries.create: ring < 2";
  {
    tbl = Hashtbl.create 64;
    enabled = false;
    gen = 0;
    window_ms;
    ring_size = ring;
    clock = (fun () -> 0.0);
  }

let default = create ()
let set_enabled t b = t.enabled <- b
let is_on t = t.enabled
let window_ms t = t.window_ms
let ring_size t = t.ring_size
let now t = t.clock ()

let reset t =
  Hashtbl.reset t.tbl;
  t.gen <- t.gen + 1

(* A new clock (a new simulator) starts a new time line: windows keyed
   by the old one would alias the new run's epochs. *)
let set_clock t f =
  t.clock <- f;
  reset t

(* Epochs are positions in the [window_ms] grid, so a width change
   invalidates every live window — the registry is reset wholesale
   rather than re-binned. *)
let set_window t ms =
  if ms <= 0.0 then invalid_arg "Timeseries.set_window: window_ms <= 0";
  if ms <> t.window_ms then begin
    t.window_ms <- ms;
    reset t
  end

let epoch_of t ts = int_of_float (Float.max 0.0 ts /. t.window_ms)
let window_start t epoch = float_of_int epoch *. t.window_ms

let series t key =
  match Hashtbl.find_opt t.tbl key with
  | Some s -> s
  | None ->
      let s =
        { skey = key; ring = Array.init t.ring_size (fun _ -> fresh_window ()) }
      in
      Hashtbl.replace t.tbl key s;
      s

(* --- pre-resolved handles ---------------------------------------- *)

type handle = {
  hreg : t;
  hkey : string;
  mutable hgen : int;  (* generation [hcell] was resolved under; -1 = never *)
  mutable hcell : series;
}

let sink = { skey = ""; ring = [||] }
let handle t key = { hreg = t; hkey = key; hgen = -1; hcell = sink }

let resolve h =
  h.hcell <- series h.hreg h.hkey;
  h.hgen <- h.hreg.gen

let observe_window (w : window) epoch v =
  if w.epoch <> epoch then begin
    w.epoch <- epoch;
    w.count <- 0;
    w.sum <- 0.0;
    w.min_v <- infinity;
    w.max_v <- neg_infinity;
    Array.fill w.buckets 0 (Array.length w.buckets) 0
  end;
  w.count <- w.count + 1;
  w.sum <- w.sum +. v;
  if v < w.min_v then w.min_v <- v;
  if v > w.max_v then w.max_v <- v;
  let i = Metrics.bucket_index v in
  w.buckets.(i) <- w.buckets.(i) + 1

let record_at h ~ts v =
  if h.hreg.enabled then begin
    if h.hgen <> h.hreg.gen then resolve h;
    let s = h.hcell in
    let n = Array.length s.ring in
    if n > 0 then begin
      let epoch = epoch_of h.hreg ts in
      observe_window s.ring.(epoch mod n) epoch v
    end
  end

let record h v = record_at h ~ts:(h.hreg.clock ()) v

let observe t key ~ts v =
  if t.enabled then begin
    let s = series t key in
    observe_window s.ring.(epoch_of t ts mod Array.length s.ring) (epoch_of t ts) v
  end

(* --- reading ------------------------------------------------------ *)

type agg = {
  w_epoch : int;
  w_start_ms : float;
  w_count : int;
  w_sum : float;
  w_min : float;
  w_max : float;
  w_buckets : int array;  (* a copy; mutation-safe *)
}

let agg_of t (w : window) =
  {
    w_epoch = w.epoch;
    w_start_ms = window_start t w.epoch;
    w_count = w.count;
    w_sum = w.sum;
    w_min = w.min_v;
    w_max = w.max_v;
    w_buckets = Array.copy w.buckets;
  }

let read_window t key ~epoch =
  match Hashtbl.find_opt t.tbl key with
  | None -> None
  | Some s ->
      let w = s.ring.(epoch mod Array.length s.ring) in
      if w.epoch = epoch then Some (agg_of t w) else None

(* The windows of [key] still live in the ring whose epoch falls in
   [lo, hi], ascending. *)
let windows_in t key ~lo ~hi =
  match Hashtbl.find_opt t.tbl key with
  | None -> []
  | Some s ->
      let n = Array.length s.ring in
      let acc = ref [] in
      for e = hi downto max 0 lo do
        let w = s.ring.(e mod n) in
        if w.epoch = e then acc := w :: !acc
      done;
      !acc

(* Events per second over the [windows] complete windows preceding the
   one containing [now] (the current window is excluded: it is still
   filling and would bias the rate down). *)
let rate t key ~now ~windows =
  if windows <= 0 then 0.0
  else
    let cur = epoch_of t now in
    let ws = windows_in t key ~lo:(cur - windows) ~hi:(cur - 1) in
    let total = List.fold_left (fun acc (w : window) -> acc + w.count) 0 ws in
    float_of_int total /. (float_of_int windows *. t.window_ms /. 1000.0)

(* Merged log-histogram quantile over the last [windows] windows up to
   and including the one containing [now].  Returns the inclusive
   upper bound of the bucket holding the q-th observation — the same
   resolution Metrics distributions have — or 0 with no data. *)
let quantile t key ~now ~windows ~q =
  let q = Float.min 1.0 (Float.max 0.0 q) in
  let cur = epoch_of t now in
  let ws = windows_in t key ~lo:(cur - windows + 1) ~hi:cur in
  let merged = Array.make Metrics.hist_buckets 0 in
  let total = ref 0 in
  List.iter
    (fun (w : window) ->
      total := !total + w.count;
      Array.iteri (fun i n -> merged.(i) <- merged.(i) + n) w.buckets)
    ws;
  if !total = 0 then 0.0
  else begin
    let target =
      max 1 (int_of_float (Float.round (q *. float_of_int !total)))
    in
    let rec walk i seen =
      if i >= Metrics.hist_buckets then Metrics.bucket_bound (Metrics.hist_buckets - 1)
      else
        let seen = seen + merged.(i) in
        if seen >= target then Metrics.bucket_bound i else walk (i + 1) seen
    in
    walk 0 0
  end

let keys t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [] |> List.sort compare

(* Every live window of every key, keys sorted, windows ascending —
   byte-for-byte identical across same-seed runs. *)
let snapshot t =
  List.map
    (fun key ->
      match Hashtbl.find_opt t.tbl key with
      | None -> (key, [])
      | Some s ->
          let ws =
            Array.to_list s.ring
            |> List.filter (fun (w : window) -> w.epoch >= 0)
            |> List.sort (fun (a : window) b -> compare a.epoch b.epoch)
            |> List.map (agg_of t)
          in
          (key, ws))
    (keys t)

(* A compact deterministic rendering of a snapshot, for fingerprint
   comparisons in tests (crash/restart replay determinism). *)
let fingerprint t =
  let buf = Buffer.create 256 in
  List.iter
    (fun (key, ws) ->
      Buffer.add_string buf key;
      Buffer.add_char buf '{';
      List.iter
        (fun a ->
          Buffer.add_string buf
            (Printf.sprintf "%d:n=%d,s=%.6f,min=%.6f,max=%.6f;" a.w_epoch
               a.w_count a.w_sum
               (if a.w_count = 0 then 0.0 else a.w_min)
               (if a.w_count = 0 then 0.0 else a.w_max)))
        ws;
      Buffer.add_string buf "}\n")
    (snapshot t);
  Digest.to_hex (Digest.string (Buffer.contents buf))
