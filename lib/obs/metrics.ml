(* Log-scale histogram geometry: bucket [i] counts observations in
   (2^(i-5), 2^(i-4)]; the last bucket overflows to infinity.  Spans
   ~60 ns to ~70 min when observations are milliseconds. *)
let hist_buckets = 28
let bucket_bound i =
  if i >= hist_buckets - 1 then infinity else Float.pow 2.0 (float_of_int (i - 4))

(* The bounds are cached so the per-observation walk below compares
   against array cells instead of recomputing powers — [bucket_index]
   sits on the per-delivery hot path of the enabled-metrics arm. *)
let bounds = Array.init hist_buckets bucket_bound

let bucket_index v =
  (* A loop, not a local recursive function: one capturing [v] would
     allocate a closure per observation.  [not (v <= _)] sends NaN to
     the overflow bucket. *)
  let i = ref 0 in
  while !i < hist_buckets - 1 && not (v <= Array.unsafe_get bounds !i) do
    incr i
  done;
  !i

type counter = { mutable count : int }
type gauge = { mutable value : float; mutable max_value : float }

(* [sum] is a one-cell float array so an observation adds to it in
   place: a float field of this mixed record would box on every add. *)
type hist = { mutable n : int; sum : float array; buckets : int array }

let new_hist () = { n = 0; sum = [| 0.0 |]; buckets = Array.make hist_buckets 0 }

let add_observation d v =
  d.n <- d.n + 1;
  d.sum.(0) <- d.sum.(0) +. v;
  let i = bucket_index v in
  d.buckets.(i) <- d.buckets.(i) + 1

type value = Vcounter of counter | Vgauge of gauge | Vhist of hist

type t = {
  tbl : (string * string * string, value) Hashtbl.t;
  mutable enabled : bool;
  mutable gen : int;
      (* Bumped on [reset]: outstanding handles notice their cached
         cell is stale and re-resolve lazily. *)
}

let create () = { tbl = Hashtbl.create 64; enabled = false; gen = 0 }
let default = create ()
let set_enabled t b = t.enabled <- b
let is_on t = t.enabled

let reset t =
  Hashtbl.reset t.tbl;
  t.gen <- t.gen + 1

let find_or_add t key make =
  match Hashtbl.find_opt t.tbl key with
  | Some v -> v
  | None ->
      let v = make () in
      Hashtbl.replace t.tbl key v;
      v

let incr t ?(peer = "") ?(by = 1) ~subsystem name =
  if t.enabled then
    match
      find_or_add t (peer, subsystem, name) (fun () -> Vcounter { count = 0 })
    with
    | Vcounter c -> c.count <- c.count + by
    | Vgauge _ | Vhist _ -> ()

(* --- pre-resolved handles ---------------------------------------

   A handle caches the mutable cell behind one (peer, subsystem, name)
   key so that a hot-loop update is a generation check plus an in-place
   mutation — no tuple allocation, no hashing.  Cells are resolved
   lazily and only while the registry is enabled, so holding a handle
   over a disabled registry creates no table entry and allocates
   nothing per update (the E16 invariant). *)

type counter_handle = {
  creg : t;
  ckey : string * string * string;
  mutable cgen : int;  (* generation [ccell] was resolved under; -1 = never *)
  mutable ccell : counter;
}

(* Sink for kind-mismatched keys: updates go nowhere, exactly like the
   keyed mutators, but stay O(1) instead of re-probing the table. *)
let counter_sink = { count = 0 }

let counter_handle t ?(peer = "") ~subsystem name =
  { creg = t; ckey = (peer, subsystem, name); cgen = -1; ccell = counter_sink }

let resolve_counter h =
  let t = h.creg in
  (match find_or_add t h.ckey (fun () -> Vcounter { count = 0 }) with
  | Vcounter c -> h.ccell <- c
  | Vgauge _ | Vhist _ -> h.ccell <- counter_sink);
  h.cgen <- t.gen

let incr_h h ~by =
  if h.creg.enabled then begin
    if h.cgen <> h.creg.gen then resolve_counter h;
    h.ccell.count <- h.ccell.count + by
  end

type gauge_handle = {
  greg : t;
  gkey : string * string * string;
  mutable ggen : int;
  mutable gcell : gauge;
}

let gauge_sink = { value = 0.0; max_value = neg_infinity }

let gauge_handle t ?(peer = "") ~subsystem name =
  { greg = t; gkey = (peer, subsystem, name); ggen = -1; gcell = gauge_sink }

let resolve_gauge h =
  let t = h.greg in
  (match
     find_or_add t h.gkey (fun () ->
         Vgauge { value = 0.0; max_value = neg_infinity })
   with
  | Vgauge g -> h.gcell <- g
  | Vcounter _ | Vhist _ -> h.gcell <- gauge_sink);
  h.ggen <- t.gen

let gauge_set_h h v =
  if h.greg.enabled then begin
    if h.ggen <> h.greg.gen then resolve_gauge h;
    let g = h.gcell in
    g.value <- v;
    if v > g.max_value then g.max_value <- v
  end

let gauge_max_h h v =
  if h.greg.enabled then begin
    if h.ggen <> h.greg.gen then resolve_gauge h;
    let g = h.gcell in
    if v > g.max_value then begin
      g.max_value <- v;
      g.value <- v
    end
  end

type hist_handle = {
  hreg : t;
  hkey : string * string * string;
  mutable hgen : int;
  mutable hcell : hist;
}

let hist_sink = { n = 0; sum = [| 0.0 |]; buckets = [||] }

let hist_handle t ?(peer = "") ~subsystem name =
  { hreg = t; hkey = (peer, subsystem, name); hgen = -1; hcell = hist_sink }

let resolve_hist h =
  let t = h.hreg in
  (match find_or_add t h.hkey (fun () -> Vhist (new_hist ())) with
  | Vhist d -> h.hcell <- d
  | Vcounter _ | Vgauge _ -> h.hcell <- hist_sink);
  h.hgen <- t.gen

let observe_h h v =
  if h.hreg.enabled then begin
    if h.hgen <> h.hreg.gen then resolve_hist h;
    let d = h.hcell in
    if Array.length d.buckets > 0 then add_observation d v
  end

let gauge_set t ?(peer = "") ~subsystem name v =
  if t.enabled then
    match
      find_or_add t (peer, subsystem, name) (fun () ->
          Vgauge { value = 0.0; max_value = neg_infinity })
    with
    | Vgauge g ->
        g.value <- v;
        if v > g.max_value then g.max_value <- v
    | Vcounter _ | Vhist _ -> ()

let gauge_max t ?(peer = "") ~subsystem name v =
  if t.enabled then
    match
      find_or_add t (peer, subsystem, name) (fun () ->
          Vgauge { value = 0.0; max_value = neg_infinity })
    with
    | Vgauge g ->
        if v > g.max_value then begin
          g.max_value <- v;
          g.value <- v
        end
    | Vcounter _ | Vhist _ -> ()

let observe t ?(peer = "") ~subsystem name v =
  if t.enabled then
    match find_or_add t (peer, subsystem, name) (fun () -> Vhist (new_hist ())) with
    | Vhist d -> add_observation d v
    | Vcounter _ | Vgauge _ -> ()

type sample =
  | Count of int
  | Value of { value : float; max_value : float }
  | Dist of { count : int; sum : float; buckets : (float * int) list }

type entry = { peer : string; subsystem : string; name : string; sample : sample }

let snapshot t =
  Hashtbl.fold
    (fun (peer, subsystem, name) v acc ->
      let sample =
        match v with
        | Vcounter { count } -> Count count
        | Vgauge { value; max_value } -> Value { value; max_value }
        | Vhist { n; sum; buckets } ->
            let filled = ref [] in
            for i = hist_buckets - 1 downto 0 do
              if buckets.(i) > 0 then
                filled := (bucket_bound i, buckets.(i)) :: !filled
            done;
            Dist { count = n; sum = sum.(0); buckets = !filled }
      in
      { peer; subsystem; name; sample } :: acc)
    t.tbl []
  |> List.sort (fun a b ->
         compare (a.peer, a.subsystem, a.name) (b.peer, b.subsystem, b.name))

let counter_value t ?(peer = "") ~subsystem name =
  match Hashtbl.find_opt t.tbl (peer, subsystem, name) with
  | Some (Vcounter { count }) -> count
  | Some (Vgauge _ | Vhist _) | None -> 0

let total t ~subsystem name =
  Hashtbl.fold
    (fun (_, s, n) v acc ->
      if String.equal s subsystem && String.equal n name then
        acc
        +.
        match v with
        | Vcounter { count } -> float_of_int count
        | Vgauge { value; _ } -> value
        | Vhist { sum; _ } -> sum.(0)
      else acc)
    t.tbl 0.0

let pp_sample fmt = function
  | Count n -> Format.fprintf fmt "%d" n
  | Value { value; max_value } ->
      if value = max_value then Format.fprintf fmt "%.2f" value
      else Format.fprintf fmt "%.2f (max %.2f)" value max_value
  | Dist { count; sum; _ } ->
      Format.fprintf fmt "n=%d sum=%.2f mean=%.3f" count sum
        (if count = 0 then 0.0 else sum /. float_of_int count)

let pp_table fmt t =
  let entries = snapshot t in
  let rows =
    List.map
      (fun e ->
        ( (if e.peer = "" then "-" else e.peer),
          e.subsystem ^ "/" ^ e.name,
          Format.asprintf "%a" pp_sample e.sample ))
      entries
  in
  let w3 f = List.fold_left (fun acc r -> max acc (String.length (f r))) 0 rows in
  let wp = max 4 (w3 (fun (p, _, _) -> p))
  and wm = max 6 (w3 (fun (_, m, _) -> m)) in
  Format.fprintf fmt "@[<v>%-*s  %-*s  %s@ " wp "peer" wm "metric" "value";
  Format.fprintf fmt "%s  %s  %s@ " (String.make wp '-') (String.make wm '-')
    "-----";
  List.iter
    (fun (p, m, v) -> Format.fprintf fmt "%-*s  %-*s  %s@ " wp p wm m v)
    rows;
  Format.fprintf fmt "@]"
