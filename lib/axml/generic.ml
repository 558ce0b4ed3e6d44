module Peer_id = Axml_net.Peer_id

type policy =
  | First
  | Random of int
  | Nearest of {
      from : Peer_id.t;
      topology : Axml_net.Topology.t;
      probe_bytes : int;
    }
  | Least_loaded of (Peer_id.t -> float)
  | Load_steered of { seed : int; gauge : Peer_id.t -> float option }

type t = {
  docs : (string, Names.Doc_ref.t list ref) Hashtbl.t;
  services : (string, Names.Service_ref.t list ref) Hashtbl.t;
  mutable version : int;
}

let create () =
  { docs = Hashtbl.create 16; services = Hashtbl.create 16; version = 0 }

let version t = t.version

(* Only a call that changes a member list bumps the version: a
   duplicate register or an absent unregister leaves the catalog, and
   every view built from it, current. *)
let register t tbl ~class_name member ~equal =
  let cell =
    match Hashtbl.find_opt tbl class_name with
    | Some c -> c
    | None ->
        let c = ref [] in
        Hashtbl.replace tbl class_name c;
        c
  in
  if not (List.exists (equal member) !cell) then begin
    cell := !cell @ [ member ];
    t.version <- t.version + 1
  end

let unregister t tbl ~class_name member ~equal =
  match Hashtbl.find_opt tbl class_name with
  | Some cell when List.exists (equal member) !cell ->
      cell := List.filter (fun r -> not (equal member r)) !cell;
      t.version <- t.version + 1
  | Some _ | None -> ()

let register_doc t ~class_name (r : Names.Doc_ref.t) =
  (match r.at with
  | Names.Any -> invalid_arg "Generic.register_doc: member location is Any"
  | Names.At _ -> ());
  register t t.docs ~class_name r ~equal:Names.Doc_ref.equal

let register_service t ~class_name (r : Names.Service_ref.t) =
  (match r.at with
  | Names.Any -> invalid_arg "Generic.register_service: member location is Any"
  | Names.At _ -> ());
  register t t.services ~class_name r ~equal:Names.Service_ref.equal

let unregister_doc t ~class_name (r : Names.Doc_ref.t) =
  unregister t t.docs ~class_name r ~equal:Names.Doc_ref.equal

let unregister_service t ~class_name (r : Names.Service_ref.t) =
  unregister t t.services ~class_name r ~equal:Names.Service_ref.equal

let members tbl ~class_name =
  match Hashtbl.find_opt tbl class_name with Some c -> !c | None -> []

let doc_members t = members t.docs
let service_members t = members t.services

(* A deterministic pseudo-random index: hash of seed and class size,
   good enough for load spreading without global state. *)
let pseudo_random seed n = if n = 0 then 0 else abs (Hashtbl.hash (seed, n)) mod n

let peer_of_location = function Names.At p -> Some p | Names.Any -> None

let choose ~policy ~location ~compare_ref members =
  match members with
  | [] -> None
  | members -> (
      match policy with
      | First -> Some (List.hd (List.sort compare_ref members))
      | Random seed ->
          Some (List.nth members (pseudo_random seed (List.length members)))
      | Nearest { from; topology; probe_bytes } ->
          let cost r =
            match peer_of_location (location r) with
            | None -> infinity
            | Some dst -> (
                match Axml_net.Topology.link topology ~src:from ~dst with
                | link -> Axml_net.Link.transfer_ms link ~bytes:probe_bytes
                | exception Not_found -> infinity)
          in
          let best =
            List.fold_left
              (fun acc r ->
                match acc with
                | None -> Some (r, cost r)
                | Some (_, c) when cost r < c -> Some (r, cost r)
                | Some _ -> acc)
              None members
          in
          Option.map fst best
      | Least_loaded gauge ->
          let load r =
            match peer_of_location (location r) with
            | None -> infinity
            | Some p -> gauge p
          in
          let best =
            List.fold_left
              (fun acc r ->
                match acc with
                | None -> Some (r, load r)
                | Some (_, c) when load r < c -> Some (r, load r)
                | Some _ -> acc)
              None members
          in
          Option.map fst best
      | Load_steered { seed; gauge } ->
          (* An option-returning gauge separates "no signal" from "zero
             load": telemetry disabled, no complete window yet, or a
             NaN/inf score all yield [None].  Members with a signal are
             ranked by it; exact ties (e.g. everyone idle at 0.0) are
             broken by the stateless [Random] rule, which also serves
             as the fallback when {e no} member has a signal — the
             policy degrades to seeded load spreading instead of
             poisoning the ranking with NaNs. *)
          let score r =
            match peer_of_location (location r) with
            | None -> None
            | Some p -> (
                match gauge p with
                | Some v when Float.is_finite v -> Some v
                | _ -> None)
          in
          let scored = List.map (fun r -> (r, score r)) members in
          let best =
            List.fold_left
              (fun acc (_, s) ->
                match (acc, s) with
                | None, Some v -> Some v
                | Some b, Some v when v < b -> Some v
                | _ -> acc)
              None scored
          in
          (match best with
          | None ->
              Some (List.nth members (pseudo_random seed (List.length members)))
          | Some b ->
              let tied =
                List.filter_map
                  (fun (r, s) -> if s = Some b then Some r else None)
                  scored
              in
              Some (List.nth tied (pseudo_random seed (List.length tied)))))

(* Members on crashed or partitioned peers are filtered out before the
   policy chooses — this is what lets d@any / s@any degrade gracefully
   under faults instead of routing calls into a black hole.  With no
   [available] oracle every member qualifies. *)
let usable ~available ~location members =
  match available with
  | None -> members
  | Some live ->
      List.filter
        (fun r ->
          match peer_of_location (location r) with
          | Some p -> live p
          | None -> true)
        members

(* [Random] resolution is the per-request hot path of generic calls:
   walk the member list twice (count the usable ones, then select the
   i-th) instead of materialising the filtered list and [List.nth]-ing
   into it.  Picks exactly the member the list-based path would — the
   i-th usable member in registration order — with zero allocation. *)
let pick ~available ~policy ~location ~compare_ref members =
  match policy with
  | Random seed ->
      let ok r =
        match available with
        | None -> true
        | Some live -> (
            match peer_of_location (location r) with
            | Some p -> live p
            | None -> true)
      in
      let n = List.fold_left (fun acc r -> if ok r then acc + 1 else acc) 0 members in
      if n = 0 then None
      else
        let rec nth_usable k = function
          | [] -> None
          | r :: rest ->
              if ok r then if k = 0 then Some r else nth_usable (k - 1) rest
              else nth_usable k rest
        in
        nth_usable (pseudo_random seed n) members
  | First | Nearest _ | Least_loaded _ | Load_steered _ ->
      choose ~policy ~location ~compare_ref (usable ~available ~location members)

let pick_doc ?available t ~policy ~class_name =
  let location (r : Names.Doc_ref.t) = r.at in
  pick ~available ~policy ~location ~compare_ref:Names.Doc_ref.compare
    (doc_members t ~class_name)

let pick_service ?available t ~policy ~class_name =
  let location (r : Names.Service_ref.t) = r.at in
  pick ~available ~policy ~location ~compare_ref:Names.Service_ref.compare
    (service_members t ~class_name)

let classes t =
  let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] in
  List.sort_uniq String.compare (keys t.docs @ keys t.services)
