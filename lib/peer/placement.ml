(* The adaptive placement controller (DESIGN.md §17).

   On a sim-clock tick it reads the windowed Timeseries signals —
   per-document read rates, per-peer transmit load — scores hot
   document classes against underloaded peers and executes live
   migrations over the existing Reliable transport:

     1. snapshot the source replica's root (the checkpoint),
     2. register the forwarding link at the source, so streaming
        appends that land mid-handoff are re-shipped to the target,
     3. ship the snapshot as a [Migrate_doc] (id-preserving, so the
        target answers to the same node refs),
     4. on the target's acknowledgement, register the new replica in
        its generic class (and optionally retire the source member).

   Reliable FIFO per (src, dst) direction does the heavy lifting of
   the correctness argument: the snapshot leaves before any append
   forwarded after it, so the target applies exactly the appends the
   snapshot misses; a post-abort [Retract_doc], also sent from the
   source, is sequenced after any still-in-flight ship and cannot
   leave an orphan behind.

   Determinism: each tick's decisions are a pure function
   ({!plan_tick}) of a {!signals} snapshot plus the controller's own
   seeded {!Axml_net.Rng}, and ticks ride the simulator's Control
   queue — same-seed runs replay the same migration schedule
   byte-for-byte, which the placement determinism suite checks. *)

module Sim = Axml_net.Sim
module Rng = Axml_net.Rng
module Peer_id = Axml_net.Peer_id
module Timeseries = Axml_obs.Timeseries
module Names = Axml_doc.Names
module Generic = Axml_doc.Generic
module Tree = Axml_xml.Tree

type config = {
  tick_ms : float;
  windows : int;
  hot_rate : float;
  max_replicas : int;
  migrations_per_tick : int;
  handoff_timeout_ms : float;
  retire_source : bool;
  seed : int;
  eligible : (Peer_id.t -> bool) option;
}

let default_config =
  {
    tick_ms = 100.0;
    windows = 3;
    hot_rate = 50.0;
    max_replicas = 3;
    migrations_per_tick = 1;
    handoff_timeout_ms = 1000.0;
    retire_source = false;
    seed = 1;
    eligible = None;
  }

type phase = Shipping | Committed | Aborted

type migration = {
  m_id : int;
  m_class : string;
  m_doc : string;
  m_src : Peer_id.t;
  m_dst : Peer_id.t;
  m_started_ms : float;
  mutable m_phase : phase;
  mutable m_committed_ms : float;
  mutable m_cleaned : bool;
}

type t = {
  sys : System.t;
  cfg : config;
  rng : Rng.t;
  mutable log : migration list;  (* newest first *)
  mutable next_id : int;
  mutable ticks : int;
  mutable stopped : bool;
  mutable view : (string * Names.Doc_ref.t list) list;
      (* The class view [sig_classes], as of [view_key]. *)
  mutable view_key : (Generic.t * int) list;
      (* (catalog, version) per peer, in [System.peers] order. *)
}

type stats = {
  s_ticks : int;
  s_started : int;
  s_committed : int;
  s_aborted : int;
}

(* ---- signals -------------------------------------------------- *)

(* Everything {!plan_tick} is allowed to know about the world,
   gathered in one impure sweep so the planning itself stays pure
   (and unit-testable against synthetic snapshots). *)
type signals = {
  sig_classes : (string * Names.Doc_ref.t list) list;
  sig_doc_rate : string -> float;
  sig_peer_load : Peer_id.t -> float;
  sig_live : Peer_id.t -> bool;
  sig_holds : Peer_id.t -> string -> bool;
  sig_peers : Peer_id.t list;
  sig_busy : string -> bool;
}

type decision = {
  d_class : string;
  d_doc : string;
  d_src : Peer_id.t;
  d_dst : Peer_id.t;
}

(* The windowed per-peer load signal, shared with the [Load_steered]
   pick policy.  [None] — not a zero — when there is nothing to read:
   telemetry disabled, no complete window yet, or a non-finite
   reading.  ({!Timeseries.rate} itself returns 0.0 on an empty
   window, which would be indistinguishable from a genuinely idle
   peer; the epoch guard is what keeps a cold start from reading
   "everyone idle" and steering traffic at random.) *)
let load_gauge ?(windows = 3) sys p =
  let reg = Timeseries.default in
  if not (Timeseries.is_on reg) then None
  else
    let now = Sim.now (System.sim sys) in
    if Timeseries.epoch_of reg now < 1 then None
    else
      let v =
        Timeseries.rate reg
          ("peer/" ^ Peer_id.to_string p ^ "/tx")
          ~now ~windows
      in
      if Float.is_finite v then Some v else None

let steered_policy ?windows ~seed sys =
  Generic.Load_steered { seed; gauge = (fun p -> load_gauge ?windows sys p) }

let doc_read_rate ~windows sys name =
  let reg = Timeseries.default in
  let now = Sim.now (System.sim sys) in
  let v = Timeseries.rate reg ("doc/" ^ name ^ "/reads") ~now ~windows in
  if Float.is_finite v then v else 0.0

(* Union of the peers' catalogs: classes in order of first appearance
   over (peer order, class name), each class's members in (peer,
   registration) order without duplicates — deterministic because
   every underlying order is.  One pass, linear in the catalogs' size:
   the table keyed by class holds each class's members so far, newest
   first, and [seen] the (class, member) pairs already taken.
   Structural hashing agrees with [Doc_ref.equal]: peer ids are
   interned. *)
let class_view peers =
  let members_of = Hashtbl.create 64 in
  let seen = Hashtbl.create 256 in
  let order = ref [] in
  List.iter
    (fun (p : Peer.t) ->
      List.iter
        (fun cls ->
          List.iter
            (fun (m : Names.Doc_ref.t) ->
              if not (Hashtbl.mem seen (cls, m)) then begin
                Hashtbl.add seen (cls, m) ();
                match Hashtbl.find_opt members_of cls with
                | Some known -> known := m :: !known
                | None ->
                    Hashtbl.add members_of cls (ref [ m ]);
                    order := cls :: !order
              end)
            (Generic.doc_members p.Peer.catalog ~class_name:cls))
        (Generic.classes p.Peer.catalog))
    peers;
  List.rev_map (fun cls -> (cls, List.rev !(Hashtbl.find members_of cls))) !order

(* The view is kept across ticks and rebuilt only when some peer's
   catalog changed.  Catalogs are compared physically as well as by
   version: a crash replaces a peer's catalog with a fresh one, and
   [Persist] and tests register into one peer's catalog directly, so
   no hook on [System.register_doc_class] alone would see every
   change. *)
let rec same_catalogs peers key =
  match (peers, key) with
  | [], [] -> true
  | (p : Peer.t) :: peers, (catalog, version) :: key ->
      p.Peer.catalog == catalog
      && Generic.version catalog = version
      && same_catalogs peers key
  | _ :: _, [] | [], _ :: _ -> false

let signals t =
  let sys = t.sys in
  let sim = System.sim sys in
  let windows = t.cfg.windows in
  let peers = System.peers sys in
  if not (same_catalogs peers t.view_key) then begin
    t.view <- class_view peers;
    t.view_key <-
      List.map
        (fun (p : Peer.t) -> (p.Peer.catalog, Generic.version p.Peer.catalog))
        peers
  end;
  let busy =
    List.filter_map
      (fun m ->
        match m.m_phase with
        | Shipping -> Some m.m_class
        | Aborted when not m.m_cleaned -> Some m.m_class
        | Committed | Aborted -> None)
      t.log
  in
  {
    sig_classes = t.view;
    sig_doc_rate = (fun name -> doc_read_rate ~windows sys name);
    sig_peer_load =
      (fun p -> match load_gauge ~windows sys p with
        | Some v -> v
        | None -> infinity);
    sig_live = (fun p -> not (Sim.is_crashed sim p));
    sig_holds =
      (fun p name ->
        match Names.Doc_name.of_string_opt name with
        | None -> false
        | Some dn -> Axml_doc.Store.mem (System.peer sys p).Peer.store dn);
    sig_peers = List.map (fun (p : Peer.t) -> p.Peer.id) peers;
    sig_busy = (fun cls -> List.exists (String.equal cls) busy);
  }

(* ---- planning (pure) ------------------------------------------ *)

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let plan_tick cfg rng s =
  let hot =
    List.filter_map
      (fun (cls, members) ->
        if s.sig_busy cls then None
        else if List.length members >= cfg.max_replicas then None
        else
          (* The migration source: the first member that is alive and
             actually holds the document (a registered-but-lost member
             — e.g. a crashed peer restarted without failover — cannot
             ship anything). *)
          let primary =
            List.find_map
              (fun (r : Names.Doc_ref.t) ->
                match r.Names.Doc_ref.at with
                | Names.At p
                  when s.sig_live p
                       && s.sig_holds p (Names.Doc_name.to_string r.name) ->
                    Some (p, Names.Doc_name.to_string r.name)
                | Names.At _ | Names.Any -> None)
              members
          in
          match primary with
          | None -> None
          | Some (src, doc) ->
              let rate = s.sig_doc_rate doc in
              if rate >= cfg.hot_rate then Some (cls, doc, src, rate, members)
              else None)
      s.sig_classes
  in
  let hot =
    List.sort
      (fun (c1, _, _, r1, _) (c2, _, _, r2, _) ->
        match Float.compare r2 r1 with
        | 0 -> String.compare c1 c2
        | c -> c)
      hot
  in
  let hot = take cfg.migrations_per_tick hot in
  let taken = ref [] in
  List.filter_map
    (fun (cls, doc, src, _rate, members) ->
      let member_peers =
        List.filter_map
          (fun (r : Names.Doc_ref.t) ->
            match r.Names.Doc_ref.at with
            | Names.At p -> Some p
            | Names.Any -> None)
          members
      in
      let candidates =
        List.filter
          (fun p ->
            s.sig_live p
            && (match cfg.eligible with None -> true | Some f -> f p)
            && (not (List.exists (Peer_id.equal p) member_peers))
            && (not (s.sig_holds p doc))
            && not (List.exists (Peer_id.equal p) !taken))
          s.sig_peers
      in
      match candidates with
      | [] -> None
      | _ ->
          let best =
            List.fold_left
              (fun acc p -> Float.min acc (s.sig_peer_load p))
              infinity candidates
          in
          (* [infinity] load means "no signal" for every candidate —
             the exact-tie set is then all of them and the seeded RNG
             decides, the planning-level analogue of [Load_steered]'s
             fallback. *)
          let tied =
            List.filter (fun p -> s.sig_peer_load p = best) candidates
          in
          let dst = List.nth tied (Rng.int rng (List.length tied)) in
          taken := dst :: !taken;
          Some { d_class = cls; d_doc = doc; d_src = src; d_dst = dst })
    hot

(* ---- execution ------------------------------------------------ *)

let commit t m =
  (* Guard on the phase: the target's acknowledgement can arrive
     arbitrarily late (Reliable retransmits it across a source
     outage), by which time the migration may have been aborted. *)
  if m.m_phase = Shipping then begin
    m.m_phase <- Committed;
    m.m_committed_ms <- Sim.now (System.sim t.sys);
    System.register_doc_class t.sys ~class_name:m.m_class
      (Names.Doc_ref.make (Names.Doc_name.of_string m.m_doc) (Names.At m.m_dst));
    if t.cfg.retire_source then
      (* Retire from the read class only: the source keeps the master
         copy and its forwarding link, so writes still flow through
         it to every replica. *)
      System.unregister_doc_class t.sys ~class_name:m.m_class
        (Names.Doc_ref.make (Names.Doc_name.of_string m.m_doc)
           (Names.At m.m_src))
  end

let start_migration t d =
  let sys = t.sys in
  (* A quiet lookup: the snapshot is controller bookkeeping, not query
     load — it must not feed the very signal that triggered it. *)
  match
    Axml_doc.Store.peek_by_string (System.peer sys d.d_src).Peer.store d.d_doc
  with
  | None -> ()
  | Some document -> (
      match Axml_doc.Document.root document with
      | Tree.Text _ -> ()
      | Tree.Element _ as root ->
          let m =
            {
              m_id = t.next_id;
              m_class = d.d_class;
              m_doc = d.d_doc;
              m_src = d.d_src;
              m_dst = d.d_dst;
              m_started_ms = Sim.now (System.sim sys);
              m_phase = Shipping;
              m_committed_ms = nan;
              m_cleaned = false;
            }
          in
          t.next_id <- t.next_id + 1;
          t.log <- m :: t.log;
          (* Forwarding link first, ship second — both inside this
             tick's Control event, so no append can slip between the
             snapshot and the link.  Appends applied after this
             instant are forwarded and, by FIFO, land after the
             snapshot. *)
          Peer.add_replica
            (System.peer sys d.d_src)
            (Axml_doc.Document.name document)
            d.d_dst;
          let key = System.fresh_key sys in
          System.set_cont sys key (fun _ ~final ->
              if final then commit t m);
          System.send sys ~src:d.d_src ~dst:d.d_dst
            (Message.Migrate_doc
               {
                 name = d.d_doc;
                 forest = [ root ];
                 notify = Some (d.d_src, key);
               }))

let abort_stale t now =
  List.iter
    (fun m ->
      if m.m_phase = Shipping then begin
        let src_crashed = Sim.is_crashed (System.sim t.sys) m.m_src in
        let timed_out = now -. m.m_started_ms > t.cfg.handoff_timeout_ms in
        if src_crashed || timed_out then m.m_phase <- Aborted
      end)
    t.log

(* Undo an aborted handoff once the source is live: drop the
   forwarding link and retract whatever the ship may have installed.
   The Retract travels src -> dst, so FIFO sequences it after any
   still-in-flight [Migrate_doc] on the same link — no orphan replica
   can survive it. *)
let cleanup_aborted t =
  List.iter
    (fun m ->
      if m.m_phase = Aborted && not m.m_cleaned then
        if not (Sim.is_crashed (System.sim t.sys) m.m_src) then begin
          (match Names.Doc_name.of_string_opt m.m_doc with
          | Some dn ->
              Peer.remove_replica (System.peer t.sys m.m_src) dn m.m_dst
          | None -> ());
          System.send t.sys ~src:m.m_src ~dst:m.m_dst
            (Message.Retract_doc { name = m.m_doc; notify = None });
          m.m_cleaned <- true
        end)
    t.log

let active_work t =
  List.exists
    (fun m ->
      match m.m_phase with
      | Shipping -> true
      | Aborted -> not m.m_cleaned
      | Committed -> false)
    t.log

let rec tick t =
  if not t.stopped then begin
    t.ticks <- t.ticks + 1;
    let sim = System.sim t.sys in
    let now = Sim.now sim in
    abort_stale t now;
    cleanup_aborted t;
    let reg = Timeseries.default in
    if Timeseries.is_on reg && Timeseries.epoch_of reg now >= 1 then
      List.iter (start_migration t) (plan_tick t.cfg t.rng (signals t));
    (* Dormancy: reschedule only while the simulation still has work
       of its own or a handoff is unfinished — an idle controller
       must not keep the run alive forever. *)
    if Sim.pending sim > 0 || active_work t then
      Sim.at sim ~time:(Sim.now sim +. t.cfg.tick_ms) (fun () -> tick t)
  end

let enable ?(cfg = default_config) sys =
  if System.transport sys <> System.Reliable then
    invalid_arg "Placement.enable: requires the Reliable transport";
  if cfg.tick_ms <= 0.0 then invalid_arg "Placement.enable: tick_ms <= 0";
  if cfg.windows <= 0 then invalid_arg "Placement.enable: windows <= 0";
  let t =
    {
      sys;
      cfg;
      rng = Rng.create ~seed:cfg.seed;
      log = [];
      next_id = 0;
      ticks = 0;
      stopped = false;
      view = [];
      view_key = [];
    }
  in
  let sim = System.sim sys in
  Sim.at sim ~time:(Sim.now sim +. cfg.tick_ms) (fun () -> tick t);
  t

let stop t = t.stopped <- true

let stats t =
  let count phase =
    List.length (List.filter (fun m -> m.m_phase = phase) t.log)
  in
  {
    s_ticks = t.ticks;
    s_started = List.length t.log;
    s_committed = count Committed;
    s_aborted = count Aborted;
  }

let schedule t = List.rev t.log

let schedule_fingerprint t =
  let buf = Buffer.create 128 in
  List.iter
    (fun m ->
      Buffer.add_string buf
        (Printf.sprintf "%d:%s:%s:%s->%s@%.3f:%s\n" m.m_id m.m_class m.m_doc
           (Peer_id.to_string m.m_src)
           (Peer_id.to_string m.m_dst)
           m.m_started_ms
           (match m.m_phase with
           | Shipping -> "shipping"
           | Committed -> Printf.sprintf "committed@%.3f" m.m_committed_ms
           | Aborted -> "aborted")))
    (schedule t);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pp_phase fmt = function
  | Shipping -> Format.pp_print_string fmt "shipping"
  | Committed -> Format.pp_print_string fmt "committed"
  | Aborted -> Format.pp_print_string fmt "aborted"

let pp_schedule fmt t =
  List.iter
    (fun m ->
      Format.fprintf fmt "#%d %8.1fms  %s: %s  %a -> %a  %a@."
        m.m_id m.m_started_ms m.m_class m.m_doc Peer_id.pp m.m_src Peer_id.pp
        m.m_dst pp_phase m.m_phase)
    (schedule t)
