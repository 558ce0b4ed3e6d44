module Peer_id = Axml_net.Peer_id
module Names = Axml_doc.Names
module Sim = Axml_net.Sim
module Tree = Axml_xml.Tree
module Forest = Axml_xml.Forest
module Trace = Axml_obs.Trace
module Metrics = Axml_obs.Metrics
module Timeseries = Axml_obs.Timeseries

let log = Logs.Src.create "axml.system" ~doc:"AXML peer system"

module Log = (val Logs.src_log log)

type emit = Forest.t -> final:bool -> unit

type cont_entry = {
  mutable remaining_finals : int;
  mutable batches : int;
  fn : emit;
}

type transport = Raw | Reliable

type wire = Xml | Binary | Binary_strict

(* The Reliable transport's per-peer counts, re-exported read-only. *)
type reliability_counters = Transport.counters = private {
  mutable retransmits : int;
  mutable dup_suppressed : int;
  mutable abandoned : int;
  mutable acks_sent : int;
  mutable batches_sent : int;
  mutable batched_messages : int;
  mutable piggybacked_acks : int;
  mutable delayed_acks : int;
}

(* One per topology member, at its dense [Peer_id.index]: the
   per-dispatch peer lookup is an array load instead of a string hash
   + probe.  A crash replaces [peer] and resets the endpoint's windows.
   [metrics] holds the routing/stream hot path's handles — a keyed
   [Metrics.incr] allocates a key tuple and hashes three strings per
   call — made on first use, since most runs never turn metrics on. *)
type slot = {
  mutable peer : Peer.t;
  endpoint : Transport.endpoint;
  mutable metrics : (Metrics.counter_handle * Metrics.hist_handle) option;
}

type t = {
  sim : Message.t Sim.t;
  slots : slot option array;
  conts : (int, cont_entry) Hashtbl.t;
  mutable next_key : int;
  response_delay_ms : float;
  cpu_ms_per_kb : float;
  transport : transport;
  wire : wire;
  mutable failover_save : Peer_id.t -> unit;
  mutable failover_load : Peer_id.t -> unit;
  mutable qcache_capacity : int option;
      (* [Some cap] = semantic caching enabled; every live peer (and
         every peer recreated by a crash) carries a fresh
         [Peer.qcache] of this capacity. *)
  mutable qcache_retired : Axml_query.Qcache.stats;
      (* the counts of caches a crash discarded *)
}

type eval_hook = t -> ctx:Peer_id.t -> Axml_algebra.Expr.t -> emit:emit -> unit

let eval_hook : eval_hook ref =
  ref (fun _ ~ctx:_ _ ~emit:_ ->
      failwith
        "System: no expression evaluator installed (Axml_peer.Exec not \
         linked?)")

let set_eval_hook f = eval_hook := f
let sim t = t.sim
let response_delay_ms t = t.response_delay_ms
let cpu_ms_per_kb t = t.cpu_ms_per_kb
let transport t = t.transport

let slot_opt t p =
  let i = Peer_id.index p in
  if i < Array.length t.slots then t.slots.(i) else None

let slot t p =
  match slot_opt t p with Some s -> s | None -> raise Not_found

let peer t p = (slot t p).peer

let metrics t p =
  let s = slot t p in
  match s.metrics with
  | Some m -> m
  | None ->
      let peer = Peer_id.to_string p in
      let m =
        ( Metrics.counter_handle Metrics.default ~peer ~subsystem:"peer"
            "routed_batches",
          Metrics.hist_handle Metrics.default ~peer ~subsystem:"stream"
            "batches" )
      in
      s.metrics <- Some m;
      m

let peers t =
  Axml_net.Topology.peers (Sim.topology t.sim) |> List.map (peer t)

let reliability_by_peer t =
  Axml_net.Topology.peers (Sim.topology t.sim)
  |> List.filter_map (fun p ->
         Option.map (fun c -> (p, c)) (Transport.counters (slot t p).endpoint))
  |> List.sort (fun (a, _) (b, _) -> Peer_id.compare a b)

let reliability_counters t = Transport.sum (List.map snd (reliability_by_peer t))

let rto t ~src ~dst =
  Option.bind (slot_opt t src) (fun s -> Transport.rto s.endpoint ~dst)

let gen_of t p = (peer t p).Peer.gen

(* Semantic result cache (DESIGN.md §18).  Attaching gives the peer a
   fresh empty cache and wires the store's mutation hook to eager
   invalidation of entries pinned to the peer's own documents;
   cross-peer dependencies are revalidated lazily at probe time
   against live version stamps (same live-read convention as
   [cost_env]: versions model the invalidation protocol's knowledge,
   not shipped state). *)
let attach_qcache t p =
  match t.qcache_capacity with
  | None -> ()
  | Some capacity ->
      let pr = peer t p in
      let owner = Peer_id.to_string p in
      pr.Peer.qcache <-
        Some
          (Axml_query.Qcache.create ~capacity
             ~equal:Axml_algebra.Expr.equal ());
      Axml_doc.Store.set_on_mutate pr.Peer.store (fun name ->
          match pr.Peer.qcache with
          | Some c ->
              Axml_query.Qcache.invalidate_dep c ~peer:owner
                ~doc:(Names.Doc_name.to_string name)
          | None -> ())

let enable_qcache ?(capacity = 256) t =
  t.qcache_capacity <- Some capacity;
  List.iter (fun (pr : Peer.t) -> attach_qcache t pr.Peer.id) (peers t)

let doc_version t ~peer:p ~doc =
  match slot_opt t p with
  | None -> None
  | Some s -> (
      match Names.Doc_name.of_string_opt doc with
      | None -> None
      | Some n -> Axml_doc.Store.version_of s.peer.Peer.store n)

let qcache_stats t =
  List.fold_left
    (fun acc (pr : Peer.t) ->
      match pr.Peer.qcache with
      | Some c -> Axml_query.Qcache.add_stats acc (Axml_query.Qcache.stats c)
      | None -> acc)
    t.qcache_retired (peers t)

let fresh_key t =
  let k = t.next_key in
  t.next_key <- t.next_key + 1;
  k

let set_cont ?(expected_finals = 1) t key f =
  Hashtbl.replace t.conts key
    { remaining_finals = expected_finals; batches = 0; fn = f }

(* The [xfer] span's label; rendering it costs, so only a transmission
   whose span is kept pays. *)
let note_of payload =
  if Trace.sampled () then Some (Format.asprintf "%a" Message.pp payload)
  else None

let raw_send ~wire sim ~src ~dst (msg : Message.t) =
  (* The charged size is the wire's: the XML model walks the payload,
     the binary wire reads cached encoded-frame lengths.  Strict mode
     then replaces the in-flight message with its encode→decode round
     trip, so the receiver works off what the decoder rebuilt from a
     real frame.  Returns the frame's expected arrival ({!Sim.send}). *)
  let bytes =
    match wire with
    | Xml -> Message.bytes msg.Message.payload
    | Binary | Binary_strict -> Codec.frame_bytes msg
  in
  let msg =
    match wire with
    | Xml | Binary -> msg
    | Binary_strict -> Codec.roundtrip msg
  in
  Sim.send
    ?note:(note_of msg.Message.payload)
    ~msgs:(Message.batch_size msg.Message.payload)
    sim ~src ~dst ~bytes msg

let send t ~src ~dst payload =
  match t.transport with
  | Reliable -> Transport.send (slot t src).endpoint ~dst payload
  | Raw ->
      ignore
        (raw_send ~wire:t.wire t.sim ~src ~dst
           (Message.make ~corr:(Trace.current_corr ()) ~op:(Trace.current_op ())
              payload))

let consume_cpu t ~peer ~bytes =
  Sim.consume_cpu t.sim ~peer
    ~ms:(t.cpu_ms_per_kb *. (float_of_int bytes /. 1024.0))

let route ?notify t ~src dest forest ~final =
  (* [notify] rides on the message so the acknowledgement fires at the
     destination, after the side effect — a bare ack message would
     overtake the (larger, slower) data it acknowledges. *)
  if Metrics.is_on Metrics.default then
    Metrics.incr_h (fst (metrics t src)) ~by:1;
  if Trace.sampled () then
    Trace.instant ~cat:"peer"
      ~peer:(Peer_id.to_string src)
      ~ts:(Sim.now t.sim)
      ~args:
        [
          ( "dest",
            match dest with
            | Message.Cont { peer; key } ->
                Printf.sprintf "cont[%d]@%s" key (Peer_id.to_string peer)
            | Message.Node r ->
                "node@" ^ Peer_id.to_string r.Names.Node_ref.peer
            | Message.Install { peer; name } ->
                Printf.sprintf "install %s@%s" name (Peer_id.to_string peer) );
          ("bytes", string_of_int (Forest.byte_size forest));
          ("final", string_of_bool final);
        ]
      "route";
  let notify = if final then notify else None in
  match dest with
  | Message.Cont { peer; key } ->
      if forest <> [] || final then
        send t ~src ~dst:peer (Message.Stream { key; forest; final })
  | Message.Node r ->
      if forest <> [] || notify <> None then
        send t ~src ~dst:r.Names.Node_ref.peer
          (Message.Insert { node = r.Names.Node_ref.node; forest; notify })
  | Message.Install { peer; name } ->
      if forest <> [] || notify <> None then
        send t ~src ~dst:peer (Message.Install_doc { name; forest; notify })

(* Notify doc-feed watchers that a document has grown. *)
let notify_watchers t self doc_name forest =
  List.iter
    (fun dest -> route t ~src:self.Peer.id dest forest ~final:false)
    (Peer.watchers_of self doc_name)

let run_service t (self : Peer.t) service params replies =
  let respond forest ~final =
    List.iter (fun dest -> route t ~src:self.Peer.id dest forest ~final) replies
  in
  match Axml_doc.Registry.find self.Peer.registry service with
  | None ->
      Log.warn (fun m ->
          m "peer %a: invoke of unknown service %a" Peer_id.pp self.Peer.id
            Names.Service_name.pp service);
      respond [] ~final:true
  | Some svc -> (
      match Axml_doc.Service.impl svc with
      | Axml_doc.Service.Declarative q ->
          let input_bytes =
            List.fold_left (fun acc f -> acc + Forest.byte_size f) 0 params
          in
          consume_cpu t ~peer:self.Peer.id ~bytes:input_bytes;
          let out =
            try Axml_query.Compile.eval ~gen:self.Peer.gen q params
            with Invalid_argument msg ->
              Log.err (fun m ->
                  m "peer %a: service %a failed: %s" Peer_id.pp self.Peer.id
                    Names.Service_name.pp service msg);
              []
          in
          respond out ~final:true
      | Axml_doc.Service.Extern f ->
          let out =
            try f params
            with exn ->
              Log.err (fun m ->
                  m "peer %a: extern service %a raised %s" Peer_id.pp
                    self.Peer.id Names.Service_name.pp service
                    (Printexc.to_string exn));
              []
          in
          (* A continuous service sends its responses successively
             (Section 2.1); space them by the configured delay. *)
          if Axml_doc.Service.continuous svc && List.length out > 1 then
            List.iteri
              (fun i tree ->
                let final = i = List.length out - 1 in
                Sim.after t.sim ~peer:self.Peer.id
                  ~delay_ms:(t.response_delay_ms *. float_of_int i)
                  (fun () -> respond [ tree ] ~final))
              out
          else respond out ~final:true
      | Axml_doc.Service.Doc_feed doc_name ->
          let current =
            match Axml_doc.Store.find self.Peer.store doc_name with
            | Some doc ->
                List.map
                  (Tree.copy ~gen:self.Peer.gen)
                  (Tree.children (Axml_doc.Document.root doc))
            | None -> []
          in
          (* Initial batch now; future inserts via the watcher list.
             A feed never terminates — no final batch. *)
          respond current ~final:false;
          List.iter (fun dest -> Peer.watch self doc_name dest) replies)

let ping t (self : Peer.t) = function
  | None -> ()
  | Some (peer, key) ->
      send t ~src:self.Peer.id ~dst:peer
        (Message.Stream { key; forest = []; final = true })

(* Placement forwarding (DESIGN.md §17): an append applied to a
   document with registered replica links is re-shipped verbatim to
   each target.  Replicas preserve node ids, so the same [Insert]
   lands under the same node there; targets hold no links of their
   own (the controller never replicates onto a holder), so
   forwarding cannot loop. *)
let forward_to_replicas t (self : Peer.t) name ~node forest =
  match Peer.replica_targets self name with
  | [] -> ()
  | targets ->
      List.iter
        (fun dst ->
          send t ~src:self.Peer.id ~dst
            (Message.Insert { node; forest; notify = None }))
        targets

let handle_insert t (self : Peer.t) node forest notify =
  (match Peer.find_doc_with_node self node with
  | None ->
      Log.warn (fun m ->
          m "peer %a: insert target node %a not found" Peer_id.pp self.Peer.id
            Axml_xml.Node_id.pp node)
  | Some doc -> (
      let name = Axml_doc.Document.name doc in
      (* Store-level insert: keeps the document's structural index
         maintained incrementally instead of invalidating it. *)
      match Axml_doc.Store.insert_under self.Peer.store name ~node forest with
      | None -> ()
      | Some _ ->
          notify_watchers t self name forest;
          forward_to_replicas t self name ~node forest));
  ping t self notify

let handle_install t (self : Peer.t) name forest notify =
  (* A quiet lookup: appending a stream's batch is a write, and must not
     read as demand for the document (DESIGN.md §17). *)
  (match Axml_doc.Store.peek_by_string self.Peer.store name with
  | Some doc ->
      (* Subsequent batches of the same stream accumulate under the
         existing root. *)
      let root = Axml_doc.Document.root doc in
      (match Tree.id root with
      | Some node -> (
          match
            Axml_doc.Store.insert_under self.Peer.store
              (Axml_doc.Document.name doc) ~node forest
          with
          | Some _ ->
              notify_watchers t self (Axml_doc.Document.name doc) forest;
              forward_to_replicas t self (Axml_doc.Document.name doc) ~node
                forest
          | None -> ())
      | None -> ())
  | None ->
      let root =
        match forest with
        | [ (Tree.Element _ as tree) ] -> tree
        | forest ->
            Tree.element ~gen:self.Peer.gen
              (Axml_xml.Label.of_string "doc")
              forest
      in
      ignore (Axml_doc.Store.install self.Peer.store ~name root));
  ping t self notify

(* Placement handoff (DESIGN.md §17): install-or-replace a replica
   under exactly the shipped name and node ids.  Unlike
   [handle_install] the name is never uniquified and an existing
   document is {e replaced}, so a re-shipped migration (restart
   resync, duplicate delivery under Raw) is idempotent.  The
   acknowledgement pings only on success — a malformed ship times out
   at the controller and the migration aborts. *)
let handle_migrate t (self : Peer.t) name forest notify =
  match forest with
  | [ (Tree.Element _ as root) ] ->
      (match Axml_doc.Store.peek_by_string self.Peer.store name with
      | Some doc ->
          ignore
            (Axml_doc.Store.update_root self.Peer.store
               (Axml_doc.Document.name doc)
               (fun _ -> root))
      | None ->
          Axml_doc.Store.add self.Peer.store (Axml_doc.Document.make ~name root));
      ping t self notify
  | _ ->
      Log.warn (fun m ->
          m "peer %a: malformed migrate of %s (not a single element)"
            Peer_id.pp self.Peer.id name)

let handle_retract t (self : Peer.t) name notify =
  (match Axml_doc.Store.peek_by_string self.Peer.store name with
  | Some doc -> Axml_doc.Store.remove self.Peer.store (Axml_doc.Document.name doc)
  | None -> ());
  ping t self notify

let dispatch_payload t (self : Peer.t) payload =
  match payload with
  | Message.Stream { key; forest; final } -> (
      match Hashtbl.find_opt t.conts key with
      | None ->
          Log.debug (fun m ->
              m "peer %a: stream for dead continuation %d" Peer_id.pp
                self.Peer.id key)
      | Some entry ->
          entry.batches <- entry.batches + 1;
          if final then begin
            entry.remaining_finals <- entry.remaining_finals - 1;
            if entry.remaining_finals <= 0 then begin
              Hashtbl.remove t.conts key;
              if Metrics.is_on Metrics.default then
                Metrics.observe_h
                  (snd (metrics t self.Peer.id))
                  (float_of_int entry.batches)
            end
          end;
          (* The consumer sees the stream close only when every
             expected source has finished. *)
          entry.fn forest ~final:(final && entry.remaining_finals <= 0))
  | Message.Eval_request { expr; replies; ack } ->
      let is_side_effecting = function
        | Message.Cont _ -> false
        | Message.Node _ | Message.Install _ -> true
      in
      let side_dests = List.filter is_side_effecting replies in
      let finished = ref false in
      let emit forest ~final =
        if not !finished then begin
          List.iter
            (fun dest ->
              let notify = if is_side_effecting dest then ack else None in
              route ?notify t ~src:self.Peer.id dest forest ~final)
            replies;
          if final then begin
            finished := true;
            (* With no side-effecting destination the ack fires
               directly; otherwise the destinations acknowledge after
               applying the final batch. *)
            match ack with
            | Some (peer, key) when side_dests = [] ->
                send t ~src:self.Peer.id ~dst:peer
                  (Message.Stream { key; forest = []; final = true })
            | Some _ | None -> ()
          end
        end
      in
      !eval_hook t ~ctx:self.Peer.id expr ~emit
  | Message.Invoke { service; params; replies } ->
      run_service t self service params replies
  | Message.Insert { node; forest; notify } ->
      handle_insert t self node forest notify
  | Message.Install_doc { name; forest; notify } ->
      handle_install t self name forest notify
  | Message.Migrate_doc { name; forest; notify } ->
      handle_migrate t self name forest notify
  | Message.Retract_doc { name; notify } -> handle_retract t self name notify
  | Message.Deploy { prefix; query; reply } ->
      let name =
        Axml_doc.Registry.install_query self.Peer.registry ~prefix query
      in
      route t ~src:self.Peer.id reply
        [ Tree.text (Names.Service_name.to_string name) ]
        ~final:true
  | Message.Query_shipped { key; query = _ } -> (
      match Hashtbl.find_opt t.conts key with
      | None -> ()
      | Some entry ->
          Hashtbl.remove t.conts key;
          entry.fn [] ~final:true)
  | Message.Ack _ | Message.Batch _ ->
      (* Consumed by {!Transport.on_message} before dispatch: a batch
         frame is unpacked into its items there. *)
      ()

(* Delivery entry point: re-establish the sender's correlation id (and
   the profiler's operator id) as the ambient ones, so spans recorded
   here — and any messages sent from here — stay attached to the
   logical computation that caused this delivery, across any number of
   hops.  Written closure-free (swap/restore rather than
   with_corr/Fun.protect) because this is the per-message hot path:
   with tracing enabled but this correlation sampled out, the whole
   prelude is two ref swaps and a cached boolean — no span arguments
   are ever built. *)
let dispatch t (self : Peer.t) ~src (msg : Message.t) =
  if not (Trace.enabled ()) then
    dispatch_payload t self msg.Message.payload
  else begin
    let corr0 = Trace.swap_corr msg.Message.corr in
    let op0 = Trace.swap_op msg.Message.op in
    let sid =
      if Trace.sampled () then
        Trace.begin_span ~cat:"peer"
          ~peer:(Peer_id.to_string self.Peer.id)
          ~ts:(Sim.now t.sim)
          ~args:[ ("src", Peer_id.to_string src) ]
          ("handle " ^ Message.tag msg.Message.payload)
      else Trace.null
    in
    let finish () =
      Trace.end_span sid
        ~ts:(max (Sim.now t.sim) (Sim.busy_until t.sim self.Peer.id));
      Trace.restore_op op0;
      Trace.restore_corr corr0
    in
    match dispatch_payload t self msg.Message.payload with
    | () -> finish ()
    | exception e ->
        finish ();
        raise e
  end

(* A crash wipes everything volatile the peer holds: its store,
   registry, catalog, watchers and its endpoint's windows.  The id
   generator and the sequence cursors are durable; [failover_save]
   snapshots Σ members for a later [failover_load] (wired up by
   {!Failover.enable} — without it a restarted peer comes back
   empty). *)
let handle_crash t p =
  t.failover_save p;
  let s = slot t p in
  Transport.crash s.endpoint;
  let old = s.peer in
  s.peer <- Peer.create ~gen:old.Peer.gen ~policy:old.Peer.policy p;
  (* The semantic cache is volatile: the replacement peer gets a fresh
     empty one (when caching is on), never the pre-crash contents —
     but what the old one counted stays counted. *)
  Option.iter
    (fun c ->
      t.qcache_retired <-
        Axml_query.Qcache.(add_stats t.qcache_retired (stats c)))
    old.Peer.qcache;
  attach_qcache t p

(* Restart resynchronization (DESIGN.md §17).  A crash wipes the
   crashed peer's pending transport sends — forwarded appends in
   flight {e from} it are gone — and a long outage may have exhausted
   retransmissions {e toward} it.  Re-shipping the whole replica over
   every forwarding link touching the restarted peer restores replica
   equality; [Migrate_doc]'s replace semantics make each re-ship
   idempotent, and Reliable FIFO sequences it correctly against any
   appends still in flight on the same link. *)
let reship_replica t ~src ~dst doc_name =
  match Axml_doc.Store.peek (peer t src).Peer.store doc_name with
  | Some doc -> (
      match Axml_doc.Document.root doc with
      | Tree.Element _ as root ->
          send t ~src ~dst
            (Message.Migrate_doc
               {
                 name = Names.Doc_name.to_string doc_name;
                 forest = [ root ];
                 notify = None;
               })
      | Tree.Text _ -> ())
  | None -> ()

let resync_replicas t p =
  List.iter
    (fun (doc, target) ->
      if not (Sim.is_crashed t.sim target) then
        reship_replica t ~src:p ~dst:target doc)
    (Peer.replica_links (peer t p));
  List.iter
    (fun (q : Peer.t) ->
      if
        (not (Peer_id.equal q.Peer.id p))
        && not (Sim.is_crashed t.sim q.Peer.id)
      then
        List.iter
          (fun (doc, target) ->
            if Peer_id.equal target p then
              reship_replica t ~src:q.Peer.id ~dst:p doc)
          (Peer.replica_links q))
    (peers t)

let create ?(response_delay_ms = 1.0) ?(cpu_ms_per_kb = 0.01)
    ?(transport = Raw) ?(wire = Xml) ?(flush_ms = 0.0) ?(ack_delay_ms = 0.0)
    topology =
  if flush_ms < 0.0 then invalid_arg "System.create: negative flush_ms";
  if ack_delay_ms < 0.0 then invalid_arg "System.create: negative ack_delay_ms";
  let sim = Sim.create topology in
  let ids = Axml_net.Topology.peers topology in
  let t =
    {
      sim;
      slots =
        Array.make
          (List.fold_left (fun n p -> max n (Peer_id.index p + 1)) 0 ids)
          None;
      conts = Hashtbl.create 64;
      next_key = 0;
      response_delay_ms;
      cpu_ms_per_kb;
      transport;
      wire;
      failover_save = ignore;
      failover_load = ignore;
      qcache_capacity = None;
      qcache_retired = Axml_query.Qcache.zero_stats;
    }
  in
  (* Delivery resolves the Peer.t at dispatch time: a crash replaces
     the record behind [p], and a stale capture would resurrect
     pre-crash state. *)
  let window =
    Transport.create sim ~flush_ms ~ack_delay_ms
      ~send:(fun ~src ~dst msg -> raw_send ~wire sim ~src ~dst msg)
      ~deliver:(fun p ~src msg -> dispatch t (peer t p) ~src msg)
  in
  List.iter
    (fun p ->
      let endpoint = Transport.endpoint window p in
      t.slots.(Peer_id.index p) <-
        Some { peer = Peer.create p; endpoint; metrics = None };
      Sim.set_handler sim p (fun ~src msg ->
          Transport.on_message endpoint ~src msg))
    ids;
  Sim.set_crash_hooks sim
    ~on_crash:(fun p -> handle_crash t p)
    ~on_restart:(fun p ->
      t.failover_load p;
      resync_replicas t p);
  t

let set_failover t ~save ~load =
  t.failover_save <- save;
  t.failover_load <- load

let inject_faults t plan = Sim.inject t.sim plan
let crash t p = Sim.crash t.sim p
let restart t p = Sim.restart t.sim p

(* The membership filter for generic (d@any / s@any) resolution:
   skip members on peers that are currently crashed or cut off from
   [from], so generic calls degrade onto surviving members instead of
   routing into a black hole. *)
let availability t ~from p =
  Peer_id.equal from p || Sim.reachable t.sim ~src:from ~dst:p

let add_document t p ~name tree =
  Axml_doc.Store.add (peer t p).Peer.store (Axml_doc.Document.make ~name tree)

let load_document t p ~name ~xml =
  let tree = Axml_xml.Parser.parse_exn ~gen:(gen_of t p) xml in
  add_document t p ~name tree

let add_service t p service =
  Axml_doc.Registry.add (peer t p).Peer.registry service

let register_doc_class t ~class_name ref_ =
  List.iter
    (fun (p : Peer.t) ->
      Axml_doc.Generic.register_doc p.Peer.catalog ~class_name ref_)
    (peers t)

let unregister_doc_class t ~class_name ref_ =
  List.iter
    (fun (p : Peer.t) ->
      Axml_doc.Generic.unregister_doc p.Peer.catalog ~class_name ref_)
    (peers t)

let register_service_class t ~class_name ref_ =
  List.iter
    (fun (p : Peer.t) ->
      Axml_doc.Generic.register_service p.Peer.catalog ~class_name ref_)
    (peers t)

(* Document-level call activation: steps 1-3 of Section 2.2.  The
   default forward target is the parent of the sc node — responses
   accumulate as siblings of the call. *)
let activate_call_now t ~owner ~doc ~node =
  let self = peer t owner in
  match Axml_doc.Store.find self.Peer.store doc with
  | None -> false
  | Some document -> (
      let root = Axml_doc.Document.root document in
      match Tree.find_by_id node root with
      | None -> false
      | Some element -> (
          match Axml_doc.Sc.of_element element with
          | Error _ -> false
          | Ok sc -> (
              let replies =
                match sc.Axml_doc.Sc.forward with
                | [] -> (
                    match Tree.parent_of node root with
                    | Some parent ->
                        [
                          Message.Node
                            (Names.Node_ref.make ~node:parent.Tree.id
                               ~peer:owner);
                        ]
                    | None ->
                        (* Root-level sc: accumulate under the sc node
                           itself. *)
                        [ Message.Node (Names.Node_ref.make ~node ~peer:owner) ])
                | fw -> List.map (fun r -> Message.Node r) fw
              in
              let params =
                List.map (Forest.copy ~gen:self.Peer.gen) sc.Axml_doc.Sc.params
              in
              match sc.Axml_doc.Sc.provider with
              | Names.At provider ->
                  send t ~src:owner ~dst:provider
                    (Message.Invoke
                       { service = sc.Axml_doc.Sc.service; params; replies });
                  true
              | Names.Any -> (
                  let picked =
                    Axml_doc.Generic.pick_service
                      ~available:(availability t ~from:owner)
                      self.Peer.catalog ~policy:self.Peer.policy
                      ~class_name:
                        (Names.Service_name.to_string sc.Axml_doc.Sc.service)
                  in
                  match picked with
                  | Some r -> (
                      match r.Names.Service_ref.at with
                      | Names.At provider ->
                          send t ~src:owner ~dst:provider
                            (Message.Invoke
                               {
                                 service = r.Names.Service_ref.name;
                                 params;
                                 replies;
                               });
                          true
                      | Names.Any -> false)
                  | None ->
                      Log.warn (fun m ->
                          m "peer %a: no member for generic service %a"
                            Peer_id.pp owner Names.Service_name.pp
                            sc.Axml_doc.Sc.service);
                      false))))

(* Each document-level activation is its own logical computation: it
   gets a fresh correlation id, which its Invoke message (and every
   downstream response, insert and acknowledgement) then carries. *)
let activate_call t ~owner ~doc ~node =
  let activated =
    if Trace.enabled () then
      Trace.with_corr (Trace.fresh_corr ()) (fun () ->
          let sid =
            (* Sampling decides per fresh correlation: a dropped
               activation records nothing here or downstream. *)
            if Trace.sampled () then
              Trace.begin_span ~cat:"peer"
                ~peer:(Peer_id.to_string owner)
                ~ts:(Sim.now t.sim)
                ~args:[ ("doc", Names.Doc_name.to_string doc) ]
                "activate_call"
            else Trace.null
          in
          Fun.protect
            ~finally:(fun () -> Trace.end_span sid ~ts:(Sim.now t.sim))
            (fun () -> activate_call_now t ~owner ~doc ~node))
    else activate_call_now t ~owner ~doc ~node
  in
  if activated && Metrics.is_on Metrics.default then
    Metrics.incr Metrics.default
      ~peer:(Peer_id.to_string owner)
      ~subsystem:"peer" "activations";
  activated

let activate_all t ?peer:only () =
  let count = ref 0 in
  List.iter
    (fun (p : Peer.t) ->
      match only with
      | Some o when not (Peer_id.equal o p.Peer.id) -> ()
      | Some _ | None ->
          List.iter
            (fun doc ->
              List.iter
                (fun (node, _sc) ->
                  if
                    activate_call t ~owner:p.Peer.id
                      ~doc:(Axml_doc.Document.name doc) ~node
                  then incr count)
                (Axml_doc.Document.calls doc))
            (Axml_doc.Store.documents p.Peer.store))
    (peers t);
  !count

let run ?max_events t = Sim.run ?max_events t.sim
let now_ms t = Sim.now t.sim
let stats t = Axml_net.Stats.snapshot (Sim.stats t.sim)
let reset_stats t = Axml_net.Stats.reset (Sim.stats t.sim)

let is_tmp name = String.length name >= 4 && String.sub name 0 4 = "_tmp"

let fingerprint t =
  let buf = Buffer.create 256 in
  List.iter
    (fun (p : Peer.t) ->
      Buffer.add_string buf (Peer_id.to_string p.Peer.id);
      Buffer.add_string buf "{docs:";
      List.iter
        (fun name ->
          let ns = Names.Doc_name.to_string name in
          if not (is_tmp ns) then begin
            match Axml_doc.Store.peek p.Peer.store name with
            | Some doc ->
                Buffer.add_string buf ns;
                Buffer.add_char buf '=';
                Buffer.add_string buf
                  (Axml_doc.Equivalence.fingerprint (Axml_doc.Document.root doc));
                Buffer.add_char buf ';'
            | None -> ()
          end)
        (Axml_doc.Store.names p.Peer.store);
      Buffer.add_string buf "|svcs:";
      List.iter
        (fun name ->
          let ns = Names.Service_name.to_string name in
          if not (is_tmp ns) then begin
            Buffer.add_string buf ns;
            Buffer.add_char buf ';'
          end)
        (Axml_doc.Registry.names p.Peer.registry);
      Buffer.add_string buf "}\n")
    (peers t);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Location-independent Σ digest: what the system {e knows}, not
   where it sits.  Identical replicas of a document collapse to one
   entry (sort_uniq), so a migration — which copies content without
   changing it — leaves this fingerprint untouched, while a lost,
   duplicated or diverged append shows up immediately.  The content
   digests come from {!Axml_doc.Equivalence.fingerprint}, which is
   node-id-insensitive, so re-minted ids do not register either. *)
let content_fingerprint t =
  let entries = ref [] in
  List.iter
    (fun (p : Peer.t) ->
      List.iter
        (fun name ->
          let ns = Names.Doc_name.to_string name in
          if not (is_tmp ns) then
            match Axml_doc.Store.peek p.Peer.store name with
            | Some doc ->
                entries :=
                  (ns ^ "="
                  ^ Axml_doc.Equivalence.fingerprint
                      (Axml_doc.Document.root doc))
                  :: !entries
            | None -> ())
        (Axml_doc.Store.names p.Peer.store);
      List.iter
        (fun name ->
          let ns = Names.Service_name.to_string name in
          if not (is_tmp ns) then entries := ("svc:" ^ ns) :: !entries)
        (Axml_doc.Registry.names p.Peer.registry))
    (peers t);
  let buf = Buffer.create 256 in
  List.iter
    (fun e ->
      Buffer.add_string buf e;
      Buffer.add_char buf '\n')
    (List.sort_uniq String.compare !entries);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let find_document t p name =
  Axml_doc.Store.find_by_string (peer t p).Peer.store name

(* A cost environment whose oracles read the live Σ: document sizes
   and statistics from the stores, service implementations from the
   registries, link and CPU pricing from the simulator — so a plan
   optimized against it is optimized against the very system about to
   run it. *)
let cost_env t =
  let topology = Sim.topology t.sim in
  let all_peer_ids = Axml_net.Topology.peers topology in
  (* Both document oracles read the store's statistics, kept until the
     document changes: a document's size is its [total_bytes].  They
     are quiet reads — planning is not demand, so cost estimates stay
     out of the doc/<n>/reads series the placement controller reads. *)
  let doc_stats (r : Names.Doc_ref.t) =
    let stats_at p =
      Option.bind (slot_opt t p) (fun s ->
          Axml_doc.Store.stats_of s.peer.Peer.store r.Names.Doc_ref.name)
    in
    match r.Names.Doc_ref.at with
    | Names.At p -> stats_at p
    | Names.Any -> List.find_map stats_at all_peer_ids
  in
  let doc_bytes r =
    match doc_stats r with
    | Some st -> Axml_query.Selectivity.Stats.total_bytes st
    | None -> 4096
  in
  let service_query (r : Names.Service_ref.t) =
    let visible p =
      Option.bind (slot_opt t p) (fun s ->
          Axml_doc.Registry.visible_query s.peer.Peer.registry
            r.Names.Service_ref.name)
    in
    match r.Names.Service_ref.at with
    | Names.At p -> visible p
    | Names.Any -> List.find_map visible all_peer_ids
  in
  Axml_algebra.Cost.default_env ~cpu_ms_per_kb:t.cpu_ms_per_kb
    ~cpu_factor:(fun p -> Sim.cpu_factor t.sim p)
    ~doc_bytes ~doc_stats ~service_query topology
