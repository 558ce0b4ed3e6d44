(* Sim-clock-aligned windowed aggregates.

   Each registered key owns a fixed ring of windows; a window covers
   [epoch * window_ms, (epoch + 1) * window_ms) of the driving clock
   (virtual sim time in the runtime) and aggregates count/sum/min/max,
   plus — for a series whose recording site asked for one — a
   mergeable log-scale histogram (the {!Metrics} bucket geometry), so
   p50/p95/p99 over any span of recent windows come from merging
   bucket counts.  Overwriting on wrap-around keeps memory fixed per
   key regardless of run length.

   A ring is stored as parallel arrays indexed by slot: the float
   aggregates live in flat float arrays, so recording updates them in
   place and allocates nothing (a float field of a mixed record would
   box on every update).

   Everything is deterministic: windows are keyed by the virtual
   clock, not wall time, and {!snapshot} orders keys lexicographically
   — two same-seed runs produce byte-identical snapshots.  The
   disabled hot path is one boolean load and allocates nothing (the
   E16 invariant), mirroring the pre-resolved {!Metrics} handles. *)

type series = {
  epochs : int array;  (* per slot; -1 = never filled *)
  counts : int array;
  sums : float array;
  mins : float array;
  maxs : float array;
  buckets : int array;
      (* [Metrics.hist_buckets] counts per slot, slot-major; [||] for a
         series recorded without a histogram. *)
}

type t = {
  tbl : (string, series) Hashtbl.t;
  mutable enabled : bool;
  mutable gen : int;
      (* Bumped on [reset]: outstanding handles re-resolve lazily. *)
  mutable window_ms : float;
  ring_size : int;
  mutable clock : unit -> float;
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

let series ~hist t key =
  match Hashtbl.find_opt t.tbl key with
  | Some s -> s
  | None ->
      let n = t.ring_size in
      let s =
        {
          epochs = Array.make n (-1);
          counts = Array.make n 0;
          sums = Array.make n 0.0;
          mins = Array.make n infinity;
          maxs = Array.make n neg_infinity;
          buckets = (if hist then Array.make (n * Metrics.hist_buckets) 0 else [||]);
        }
      in
      Hashtbl.replace t.tbl key s;
      s

(* --- pre-resolved handles ---------------------------------------- *)

type handle = {
  hreg : t;
  hkey : string;
  hhist : bool;
  mutable hgen : int;  (* generation [hcell] was resolved under; -1 = never *)
  mutable hcell : series;
}

let sink =
  { epochs = [||]; counts = [||]; sums = [||]; mins = [||]; maxs = [||]; buckets = [||] }

let handle ?(hist = false) t key =
  { hreg = t; hkey = key; hhist = hist; hgen = -1; hcell = sink }

let resolve h =
  h.hcell <- series ~hist:h.hhist h.hreg h.hkey;
  h.hgen <- h.hreg.gen

(* Slot [i] starts over as window [epoch]. *)
let clear_slot s i epoch =
  s.epochs.(i) <- epoch;
  s.counts.(i) <- 0;
  s.sums.(i) <- 0.0;
  s.mins.(i) <- infinity;
  s.maxs.(i) <- neg_infinity;
  if Array.length s.buckets > 0 then
    Array.fill s.buckets (i * Metrics.hist_buckets) Metrics.hist_buckets 0

let record_at h ~ts v =
  let reg = h.hreg in
  if reg.enabled then begin
    if h.hgen <> reg.gen then resolve h;
    let s = h.hcell in
    let epoch = epoch_of reg ts in
    let i = epoch mod reg.ring_size in
    if s.epochs.(i) <> epoch then clear_slot s i epoch;
    s.counts.(i) <- s.counts.(i) + 1;
    s.sums.(i) <- s.sums.(i) +. v;
    if v < s.mins.(i) then s.mins.(i) <- v;
    if v > s.maxs.(i) then s.maxs.(i) <- v;
    if Array.length s.buckets > 0 then begin
      let b = (i * Metrics.hist_buckets) + Metrics.bucket_index v in
      s.buckets.(b) <- s.buckets.(b) + 1
    end
  end

let record h v = record_at h ~ts:(h.hreg.clock ()) v

(* --- reading ------------------------------------------------------ *)

type agg = {
  w_epoch : int;
  w_start_ms : float;
  w_count : int;
  w_sum : float;
  w_min : float;
  w_max : float;
}

let agg_of t s i =
  {
    w_epoch = s.epochs.(i);
    w_start_ms = window_start t s.epochs.(i);
    w_count = s.counts.(i);
    w_sum = s.sums.(i);
    w_min = s.mins.(i);
    w_max = s.maxs.(i);
  }

let read_window t key ~epoch =
  match Hashtbl.find_opt t.tbl key with
  | None -> None
  | Some s ->
      let i = epoch mod t.ring_size in
      if s.epochs.(i) = epoch then Some (agg_of t s i) else None

(* Fold [f] over the slots of [s] still holding a window whose epoch
   falls in [lo, hi]. *)
let fold_live t s ~lo ~hi f init =
  let acc = ref init in
  for e = max 0 lo to hi do
    let i = e mod t.ring_size in
    if s.epochs.(i) = e then acc := f !acc i
  done;
  !acc

(* Events per second over the [windows] complete windows preceding the
   one containing [now] (the current window is excluded: it is still
   filling and would bias the rate down). *)
let rate t key ~now ~windows =
  match Hashtbl.find_opt t.tbl key with
  | Some s when windows > 0 ->
      let cur = epoch_of t now in
      let total =
        fold_live t s ~lo:(cur - windows) ~hi:(cur - 1)
          (fun acc i -> acc + s.counts.(i)) 0
      in
      float_of_int total /. (float_of_int windows *. t.window_ms /. 1000.0)
  | Some _ | None -> 0.0

(* Merged log-histogram quantile over the last [windows] windows up to
   and including the one containing [now].  Returns the inclusive
   upper bound of the bucket holding the q-th observation — the same
   resolution Metrics distributions have — or 0 with no data. *)
let quantile t key ~now ~windows ~q =
  match Hashtbl.find_opt t.tbl key with
  | None -> 0.0
  | Some s when Array.length s.buckets = 0 ->
      invalid_arg
        (Printf.sprintf "Timeseries.quantile: %S was recorded without buckets" key)
  | Some s ->
      let q = Float.min 1.0 (Float.max 0.0 q) in
      let cur = epoch_of t now in
      let merged = Array.make Metrics.hist_buckets 0 in
      let total =
        fold_live t s ~lo:(cur - windows + 1) ~hi:cur
          (fun acc i ->
            for b = 0 to Metrics.hist_buckets - 1 do
              merged.(b) <- merged.(b) + s.buckets.((i * Metrics.hist_buckets) + b)
            done;
            acc + s.counts.(i))
          0
      in
      if total = 0 then 0.0
      else begin
        let target = max 1 (int_of_float (Float.round (q *. float_of_int total))) in
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
      let s = Hashtbl.find t.tbl key in
      let live = List.filter (fun i -> s.epochs.(i) >= 0) (List.init t.ring_size Fun.id) in
      let ws =
        List.sort (fun a b -> compare s.epochs.(a) s.epochs.(b)) live
        |> List.map (agg_of t s)
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
