module Metrics = Axml_obs.Metrics

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

type 'e t = {
  equal : 'e -> 'e -> bool;
  capacity : int;
  buckets : (int, 'e entry list ref) Hashtbl.t;  (* by fingerprint hash *)
  by_dep : (string, 'e entry list ref) Hashtbl.t;  (* by "peer/doc" *)
  mutable entries : int;
  mutable clock : int;
  mutable s : stats;
  m_hits : Metrics.counter_handle option;
  m_misses : Metrics.counter_handle option;
  m_collisions : Metrics.counter_handle option;
  m_stale : Metrics.counter_handle option;
  m_invalidations : Metrics.counter_handle option;
  m_installs : Metrics.counter_handle option;
  m_evictions : Metrics.counter_handle option;
}

let create ?(capacity = 256) ?owner ~equal () =
  if capacity < 1 then invalid_arg "Qcache.create: capacity < 1";
  let handle name =
    match owner with
    | None -> None
    | Some peer ->
        Some (Metrics.counter_handle Metrics.default ~peer ~subsystem:"qcache" name)
  in
  {
    equal;
    capacity;
    buckets = Hashtbl.create 64;
    by_dep = Hashtbl.create 64;
    entries = 0;
    clock = 0;
    s = zero_stats;
    m_hits = handle "hits";
    m_misses = handle "misses";
    m_collisions = handle "collisions";
    m_stale = handle "stale_drops";
    m_invalidations = handle "invalidations";
    m_installs = handle "installs";
    m_evictions = handle "evictions";
  }

let bump h =
  if Metrics.is_on Metrics.default then
    Option.iter (fun h -> Metrics.incr_h h ~by:1) h

let note_hit t =
  t.s <- { t.s with hits = t.s.hits + 1 };
  bump t.m_hits

let note_miss t =
  t.s <- { t.s with misses = t.s.misses + 1 };
  bump t.m_misses

let record_hit t = note_hit t

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
  t.s <- { t.s with stale_drops = t.s.stale_drops + 1 };
  bump t.m_stale

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
              t.s <- { t.s with collisions = t.s.collisions + 1 };
              bump t.m_collisions;
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
      note_hit t;
      hit
  | None ->
      note_miss t;
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
      t.s <- { t.s with evictions = t.s.evictions + 1 };
      bump t.m_evictions

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
  t.s <- { t.s with installs = t.s.installs + 1 };
  bump t.m_installs;
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
          t.s <- { t.s with invalidations = t.s.invalidations + 1 };
          bump t.m_invalidations)
        victims

let clear t =
  Hashtbl.reset t.buckets;
  Hashtbl.reset t.by_dep;
  t.entries <- 0

let length t = t.entries
let stats t = t.s
