module Timeseries = Axml_obs.Timeseries
module Stats = Axml_query.Selectivity.Stats

type t = {
  docs : (Names.Doc_name.t, Document.t) Hashtbl.t;
  stats : (Names.Doc_name.t, Stats.t) Hashtbl.t;
      (* Planner statistics, computed on demand and dropped by every
         mutation of their document. *)
  reads : (Names.Doc_name.t, Timeseries.handle) Hashtbl.t;
      (* Per-document [doc/<name>/reads] series, bound lazily so
         stores created with telemetry off pay nothing. *)
  versions : (Names.Doc_name.t, int) Hashtbl.t;
      (* Per-document version stamps — see [next_stamp]. *)
  mutable on_mutate : Names.Doc_name.t -> unit;
}

(* Version stamps are drawn from one process-global monotonic counter,
   not per-document counters: a semantic-cache entry pinned to stamp v
   must never revalidate against a coincidentally equal stamp of a
   different document state.  In particular a crash-restart reload
   re-adds documents and receives fresh stamps, so entries computed
   before the crash can never be served against checkpoint-restored
   content. *)
let stamp = ref 0

let next_stamp () =
  incr stamp;
  !stamp

let create () =
  {
    docs = Hashtbl.create 16;
    stats = Hashtbl.create 16;
    reads = Hashtbl.create 16;
    versions = Hashtbl.create 16;
    on_mutate = ignore;
  }

let bump t name =
  Hashtbl.replace t.versions name (next_stamp ());
  Hashtbl.remove t.stats name;
  t.on_mutate name

let version_of t name = Hashtbl.find_opt t.versions name
let set_on_mutate t f = t.on_mutate <- f

(* Per-document read load, windowed by {!Axml_obs.Timeseries} under
   the simulator's clock — the demand signal the placement controller
   reads to decide migration.  Guarded on [Timeseries.is_on]: disabled,
   the cost is one boolean load. *)
let note_read t name =
  if Timeseries.is_on Timeseries.default then begin
    let h =
      match Hashtbl.find_opt t.reads name with
      | Some h -> h
      | None ->
          let h =
            Timeseries.handle Timeseries.default
              ("doc/" ^ Names.Doc_name.to_string name ^ "/reads")
          in
          Hashtbl.replace t.reads name h;
          h
    in
    Timeseries.record h 1.0
  end

let add t doc =
  let name = Document.name doc in
  if Hashtbl.mem t.docs name then
    invalid_arg
      (Printf.sprintf "Store.add: document %S already exists"
         (Names.Doc_name.to_string name))
  else begin
    Hashtbl.replace t.docs name doc;
    bump t name
  end

let install t ~name root =
  let rec pick candidate i =
    let dn = Names.Doc_name.of_string candidate in
    if Hashtbl.mem t.docs dn then pick (Printf.sprintf "%s_%d" name i) (i + 1)
    else dn
  in
  let dn = pick name 1 in
  let doc = Document.make ~name:(Names.Doc_name.to_string dn) root in
  Hashtbl.replace t.docs dn doc;
  bump t dn;
  dn

let find t name =
  match Hashtbl.find_opt t.docs name with
  | None -> None
  | Some doc ->
      note_read t name;
      Some doc

let find_by_string t s =
  match Names.Doc_name.of_string_opt s with
  | None -> None
  | Some n -> find t n

(* Telemetry-quiet lookups for the runtime's own machinery (replica
   shipping, retraction, fingerprints).  Internal reads must not feed
   the doc/<n>/reads signal: the placement controller would observe
   its own bookkeeping as query load and re-heat the documents it
   just moved. *)
let peek t name = Hashtbl.find_opt t.docs name

let peek_by_string t s =
  match Names.Doc_name.of_string_opt s with
  | None -> None
  | Some n -> peek t n

let mem t name = Hashtbl.mem t.docs name

let remove t name =
  let existed = Hashtbl.mem t.docs name in
  Hashtbl.remove t.docs name;
  Hashtbl.remove t.versions name;
  Hashtbl.remove t.stats name;
  (* No stamp to record for an absent document — [version_of] goes
     [None], which every cache probe treats as stale — but the mutation
     hook must still fire for eager invalidation. *)
  if existed then t.on_mutate name

let update t doc =
  let name = Document.name doc in
  if not (Hashtbl.mem t.docs name) then raise Not_found;
  Hashtbl.replace t.docs name doc;
  bump t name

let names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.docs []
  |> List.sort Names.Doc_name.compare

(* A listing is bookkeeping (insert routing, checkpoints, activation),
   not demand: it reads quietly. *)
let documents t = List.filter_map (peek t) (names t)

let update_root t name f =
  match Hashtbl.find_opt t.docs name with
  | None -> false
  | Some doc ->
      Hashtbl.replace t.docs name (Document.with_root doc (f (Document.root doc)));
      bump t name;
      true

let stats_of t name =
  match Hashtbl.find_opt t.stats name with
  | Some st -> Some st
  | None -> (
      match Hashtbl.find_opt t.docs name with
      | None -> None
      | Some doc ->
          let st = Stats.of_forest [ Document.root doc ] in
          Hashtbl.replace t.stats name st;
          Some st)

let insert_under t name ~node forest =
  match Hashtbl.find_opt t.docs name with
  | None -> None
  | Some doc -> (
      match Document.insert_under ~node forest doc with
      | None -> None
      | Some doc' ->
          Hashtbl.replace t.docs name doc';
          bump t name;
          Some doc')
