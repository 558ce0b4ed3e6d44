type fingerprint = { hash : int; size : int; depth : int }

let fp_equal a b = a.hash = b.hash && a.size = b.size && a.depth = b.depth

type 'e entry = {
  e_fp : fingerprint;
  e_expr : 'e;
  e_deps : (string * string * int) array;
  e_forest : Axml_xml.Forest.t;
  mutable e_tick : int;  (* last-probed clock, for LRU eviction *)
}

type stats = {
  hits : int;
  misses : int;
  collisions : int;
  stale_drops : int;
  invalidations : int;
  installs : int;
  evictions : int;
}

let zero_stats =
  {
    hits = 0;
    misses = 0;
    collisions = 0;
    stale_drops = 0;
    invalidations = 0;
    installs = 0;
    evictions = 0;
  }

let add_stats a b =
  {
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    collisions = a.collisions + b.collisions;
    stale_drops = a.stale_drops + b.stale_drops;
    invalidations = a.invalidations + b.invalidations;
    installs = a.installs + b.installs;
    evictions = a.evictions + b.evictions;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "hits=%d misses=%d collisions=%d stale=%d invalidated=%d installs=%d \
     evictions=%d"
    s.hits s.misses s.collisions s.stale_drops s.invalidations s.installs
    s.evictions

(* The counters are bumped in place; [stats] copies them out. *)
type 'e t = {
  equal : 'e -> 'e -> bool;
  capacity : int;
  buckets : (int, 'e entry list ref) Hashtbl.t;  (* by fingerprint hash *)
  by_dep : (string, 'e entry list ref) Hashtbl.t;  (* by "peer/doc" *)
  mutable entries : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable collisions : int;
  mutable stale_drops : int;
  mutable invalidations : int;
  mutable installs : int;
  mutable evictions : int;
}

let create ?(capacity = 256) ~equal () =
  if capacity < 1 then invalid_arg "Qcache.create: capacity < 1";
  {
    equal;
    capacity;
    buckets = Hashtbl.create 64;
    by_dep = Hashtbl.create 64;
    entries = 0;
    clock = 0;
    hits = 0;
    misses = 0;
    collisions = 0;
    stale_drops = 0;
    invalidations = 0;
    installs = 0;
    evictions = 0;
  }

let record_hit t = t.hits <- t.hits + 1

let dep_key ~peer ~doc = peer ^ "/" ^ doc

(* Remove [e] (by physical identity) from both indexes. *)
let unlink t e =
  let strip cell = cell := List.filter (fun e' -> e' != e) !cell in
  (match Hashtbl.find_opt t.buckets e.e_fp.hash with
  | Some cell ->
      strip cell;
      if !cell = [] then Hashtbl.remove t.buckets e.e_fp.hash
  | None -> ());
  Array.iter
    (fun (p, d, _) ->
      let key = dep_key ~peer:p ~doc:d in
      match Hashtbl.find_opt t.by_dep key with
      | Some cell ->
          strip cell;
          if !cell = [] then Hashtbl.remove t.by_dep key
      | None -> ())
    e.e_deps;
  t.entries <- t.entries - 1

let drop_stale t e =
  unlink t e;
  t.stale_drops <- t.stale_drops + 1

let fresh e ~current =
  Array.for_all
    (fun (p, d, v) ->
      match current ~peer:p ~doc:d with Some v' -> v' = v | None -> false)
    e.e_deps

let find_entry t ~fp ~expr ~current =
  match Hashtbl.find_opt t.buckets fp.hash with
  | None -> None
  | Some cell ->
      let rec scan = function
        | [] -> None
        | e :: rest ->
            if not (fp_equal e.e_fp fp) then scan rest
            else if not (t.equal e.e_expr expr) then begin
              t.collisions <- t.collisions + 1;
              scan rest
            end
            else if fresh e ~current then begin
              t.clock <- t.clock + 1;
              e.e_tick <- t.clock;
              Some e.e_forest
            end
            else begin
              drop_stale t e;
              scan rest
            end
      in
      scan !cell

let probe t ~fp ~expr ~current = find_entry t ~fp ~expr ~current

let find t ~fp ~expr ~current =
  match find_entry t ~fp ~expr ~current with
  | Some _ as hit ->
      t.hits <- t.hits + 1;
      hit
  | None ->
      t.misses <- t.misses + 1;
      None

let evict_lru t =
  (* O(entries) scan; capacities are small and eviction rare. *)
  let victim = ref None in
  Hashtbl.iter
    (fun _ cell ->
      List.iter
        (fun e ->
          match !victim with
          | Some v when v.e_tick <= e.e_tick -> ()
          | _ -> victim := Some e)
        !cell)
    t.buckets;
  match !victim with
  | None -> ()
  | Some e ->
      unlink t e;
      t.evictions <- t.evictions + 1

let install t ~fp ~expr ~deps ~forest =
  (* Replace any existing entry for the same expression. *)
  (match Hashtbl.find_opt t.buckets fp.hash with
  | Some cell ->
      List.iter
        (fun e -> if fp_equal e.e_fp fp && t.equal e.e_expr expr then unlink t e)
        !cell
  | None -> ());
  t.clock <- t.clock + 1;
  let e =
    { e_fp = fp; e_expr = expr; e_deps = deps; e_forest = forest; e_tick = t.clock }
  in
  let cell =
    match Hashtbl.find_opt t.buckets fp.hash with
    | Some cell -> cell
    | None ->
        let cell = ref [] in
        Hashtbl.replace t.buckets fp.hash cell;
        cell
  in
  cell := e :: !cell;
  Array.iter
    (fun (p, d, _) ->
      let key = dep_key ~peer:p ~doc:d in
      let cell =
        match Hashtbl.find_opt t.by_dep key with
        | Some cell -> cell
        | None ->
            let cell = ref [] in
            Hashtbl.replace t.by_dep key cell;
            cell
      in
      cell := e :: !cell)
    e.e_deps;
  t.entries <- t.entries + 1;
  t.installs <- t.installs + 1;
  while t.entries > t.capacity do
    evict_lru t
  done

let invalidate_dep t ~peer ~doc =
  match Hashtbl.find_opt t.by_dep (dep_key ~peer ~doc) with
  | None -> ()
  | Some cell ->
      let victims = !cell in
      List.iter
        (fun e ->
          unlink t e;
          t.invalidations <- t.invalidations + 1)
        victims

let clear t =
  Hashtbl.reset t.buckets;
  Hashtbl.reset t.by_dep;
  t.entries <- 0

let length t = t.entries

let stats (t : _ t) : stats =
  {
    hits = t.hits;
    misses = t.misses;
    collisions = t.collisions;
    stale_drops = t.stale_drops;
    invalidations = t.invalidations;
    installs = t.installs;
    evictions = t.evictions;
  }
