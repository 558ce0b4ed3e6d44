module Peer_id = Axml_net.Peer_id
module Tree = Axml_xml.Tree
module Label = Axml_xml.Label
module Names = Axml_doc.Names
module System = Axml_peer.System

type software_distribution = {
  sd_system : System.t;
  sd_client : Peer_id.t;
  sd_mirrors : Peer_id.t list;
  sd_resolve : string;
  sd_catalog_class : string;
  sd_packages : string list;
}

let l = Label.of_string

let package_tree ~gen ~rng ~name ~payload_bytes ~candidates ~deps_per_package =
  let deps =
    List.init (Rng.int rng (deps_per_package + 1)) (fun _ ->
        Rng.pick rng candidates)
  in
  let deps = List.sort_uniq String.compare deps in
  Tree.element ~gen (l "package")
    ~attrs:
      [
        ("name", name);
        ("version", Printf.sprintf "%d.%d" (1 + Rng.int rng 3) (Rng.int rng 10));
      ]
    (List.map
       (fun d -> Tree.element ~gen (l "dep") ~attrs:[ ("name", d) ] [])
       deps
    @ [
        Tree.element ~gen (l "blob")
          [ Tree.text (String.init payload_bytes (fun _ -> 'x')) ];
      ])

let resolver_query =
  (* Arity 2: $0 = request (want elements), $1 = catalog.  Join on the
     package name. *)
  Axml_query.Parser.parse_exn
    "query(2) for $w in $0//want, $p in $1//package where attr($w, \"name\") \
     = attr($p, \"name\") return <resolved>{$p}</resolved>"

let software_distribution ?(mirrors = 3) ?(packages = 60)
    ?(deps_per_package = 3) ?(payload_bytes = 96) ~seed () =
  let mirror_ids =
    List.init mirrors (fun i -> Peer_id.of_string (Printf.sprintf "mirror%d" i))
  in
  let client = Peer_id.of_string "client" in
  let topology =
    Axml_net.Topology.full_mesh
      ~link:(Axml_net.Link.make ~latency_ms:10.0 ~bandwidth_bytes_per_ms:100.0)
      (client :: mirror_ids)
  in
  let sys = System.create topology in
  let package_names =
    List.init packages (fun i -> Printf.sprintf "pkg%03d" i)
  in
  let catalog_class = "catalog" in
  List.iter
    (fun m ->
      let gen = System.gen_of sys m in
      let mirror_rng = Rng.create ~seed:(seed + Hashtbl.hash (Peer_id.to_string m)) in
      let pkgs =
        List.map
          (fun name ->
            package_tree ~gen ~rng:mirror_rng ~name ~payload_bytes
              ~candidates:package_names ~deps_per_package)
          package_names
      in
      System.add_document sys m ~name:"packages"
        (Tree.element ~gen (l "packages") pkgs);
      System.add_service sys m
        (Axml_doc.Service.declarative ~name:"resolve" resolver_query);
      (* Update feed: a continuous service over the local updates
         document. *)
      System.add_document sys m ~name:"updates"
        (Tree.element ~gen (l "updates") []);
      System.add_service sys m
        (Axml_doc.Service.doc_feed ~name:"update_feed" ~doc:"updates");
      System.register_doc_class sys ~class_name:catalog_class
        (Names.Doc_ref.make
           (Names.Doc_name.of_string "packages")
           (Names.At m));
      System.register_service_class sys ~class_name:"resolve_any"
        (Names.Service_ref.make
           (Names.Service_name.of_string "resolve")
           (Names.At m)))
    mirror_ids;
  {
    sd_system = sys;
    sd_client = client;
    sd_mirrors = mirror_ids;
    sd_resolve = "resolve";
    sd_catalog_class = catalog_class;
    sd_packages = package_names;
  }

let resolution_request sd ~at ~wanted =
  let gen = System.gen_of sd.sd_system at in
  Tree.element ~gen (l "request")
    (List.map
       (fun name -> Tree.element ~gen (l "want") ~attrs:[ ("name", name) ] [])
       wanted)

type flash_crowd = {
  fc_system : System.t;
  fc_publisher : Peer_id.t;
  fc_mirrors : Peer_id.t list;
  fc_subscribers : Peer_id.t list;
  fc_fetch_class : string;
  fc_requests : int;
  fc_completed : int ref;
  fc_unserved : int ref;
}

let flash_crowd ?(mirrors = 8) ?(subscribers = 64) ?(requests_per_subscriber = 4)
    ?(packages = 32) ?(payload_bytes = 256) ?(arrival_window_ms = 500.0)
    ?(think_ms = 5.0) ?transport ?wire ?flush_ms ?ack_delay_ms ~seed () =
  if mirrors < 1 then invalid_arg "Scenarios.flash_crowd: mirrors < 1";
  if subscribers < 0 then invalid_arg "Scenarios.flash_crowd: subscribers < 0";
  let publisher = Peer_id.of_string "origin" in
  let mirror_ids =
    List.init mirrors (fun i -> Peer_id.of_string (Printf.sprintf "mirror%03d" i))
  in
  let sub_ids =
    List.init subscribers (fun i -> Peer_id.of_string (Printf.sprintf "sub%05d" i))
  in
  let topology =
    Axml_net.Topology.clustered
      ~intra:(Axml_net.Link.make ~latency_ms:2.0 ~bandwidth_bytes_per_ms:1000.0)
      ~inter:(Axml_net.Link.make ~latency_ms:20.0 ~bandwidth_bytes_per_ms:200.0)
      [ publisher :: mirror_ids; sub_ids ]
  in
  let sys = System.create ?transport ?wire ?flush_ms ?ack_delay_ms topology in
  let sim = System.sim sys in
  let fetch_class = "fetch_any" in
  (* Mirrors: an extern package-fetch service over a pre-built package
     array, registered as one generic service class. *)
  List.iter
    (fun m ->
      let gen = System.gen_of sys m in
      let pkg_forests =
        Array.init packages (fun i ->
            [
              Tree.element ~gen (l "package")
                ~attrs:
                  [ ("name", Printf.sprintf "pkg%03d" i); ("version", "2.0") ]
                [
                  Tree.element ~gen (l "blob")
                    [ Tree.text (String.make payload_bytes 'x') ];
                ];
            ])
      in
      let fetch params =
        match params with
        | [ (req :: _) ] -> (
            match Tree.attr req "pkg" with
            | Some s ->
                let i = int_of_string s in
                if i >= 0 && i < packages then pkg_forests.(i) else []
            | None -> [])
        | _ -> []
      in
      System.add_service sys m
        (Axml_doc.Service.extern ~name:"fetch"
           ~signature:(Axml_schema.Signature.untyped ~arity:1)
           fetch);
      System.register_service_class sys ~class_name:fetch_class
        (Names.Service_ref.make (Names.Service_name.of_string "fetch") (Names.At m)))
    mirror_ids;
  (* The publisher announces the release to every mirror (the event
     that triggers the crowd). *)
  let pgen = System.gen_of sys publisher in
  List.iter
    (fun m ->
      System.send sys ~src:publisher ~dst:m
        (Axml_peer.Message.Install_doc
           {
             name = "release";
             forest =
               [
                 Tree.element ~gen:pgen (l "release")
                   ~attrs:
                     [ ("version", "2.0"); ("packages", string_of_int packages) ]
                   [];
               ];
             notify = None;
           }))
    mirror_ids;
  let completed = ref 0 and unserved = ref 0 in
  (* One request tree per package, shared by every subscriber: the
     fetch service only reads the [pkg] attribute and nothing installs
     these trees, so sharing is safe — and it keeps half a million
     requests from allocating half a million identical elements. *)
  let req_trees =
    let rgen = Axml_xml.Node_id.Gen.create ~namespace:"flash-crowd-req" in
    Array.init packages (fun i ->
        Tree.element ~gen:rgen (l "get") ~attrs:[ ("pkg", string_of_int i) ] [])
  in
  (* Each subscriber runs a closed loop: pick a mirror through the
     generic class, invoke fetch, and on the final response batch
     schedule the next request after a think delay.  The availability
     oracle and catalog are per-subscriber invariants, hoisted out of
     the per-request path. *)
  (* Each request is one cross-peer computation: mint it a fresh
     correlation id so head sampling (see {!Axml_obs.Trace}) keeps or
     drops the whole request — invoke, mirror work, response stream —
     atomically.  Timer callbacks run under the null id, so the guard
     fires exactly once per request; with tracing off the path is
     untouched. *)
  let rec request sub avail catalog sub_rng pick_seed remaining =
    if Axml_obs.Trace.enabled () && Axml_obs.Trace.current_corr () = 0 then
      Axml_obs.Trace.with_corr
        (Axml_obs.Trace.fresh_corr ())
        (fun () -> request sub avail catalog sub_rng pick_seed remaining)
    else
    match
      Axml_doc.Generic.pick_service ~available:avail catalog
        ~policy:(Axml_doc.Generic.Random pick_seed)
        ~class_name:fetch_class
    with
    | None | Some { Names.Service_ref.at = Names.Any; _ } ->
        incr unserved;
        (* SLO breach: no reachable mirror — the request dies here. *)
        if Axml_obs.Trace.sampled () then
          Axml_obs.Trace.instant ~cat:"slo"
            ~peer:(Peer_id.to_string sub)
            ~ts:(Axml_net.Sim.now sim)
            ~args:[ ("class", fetch_class) ]
            "unserved"
    | Some { Names.Service_ref.name = service; at = Names.At provider } ->
        let key = System.fresh_key sys in
        System.set_cont sys key (fun _forest ~final ->
            if final then begin
              incr completed;
              if remaining > 1 then
                Axml_net.Sim.after sim ~peer:sub
                  ~delay_ms:(Rng.float sub_rng think_ms)
                  (fun () ->
                    request sub avail catalog sub_rng pick_seed (remaining - 1))
            end);
        let req = req_trees.(Rng.int sub_rng packages) in
        System.send sys ~src:sub ~dst:provider
          (Axml_peer.Message.Invoke
             {
               service;
               params = [ [ req ] ];
               replies = [ Axml_peer.Message.Cont { peer = sub; key } ];
             })
  in
  (* Flash-crowd arrival curve: quadratic ramp concentrating arrivals
     near the release announcement, with a long tail. *)
  let arrival_rng = Rng.create ~seed in
  List.iteri
    (fun k sub ->
      let u = Rng.float arrival_rng 1.0 in
      let at = arrival_window_ms *. u *. u in
      let sub_rng = Rng.create ~seed:((seed * 1_000_003) + k) in
      let pick_seed = seed + k in
      if requests_per_subscriber > 0 then
        Axml_net.Sim.after sim ~peer:sub ~delay_ms:at (fun () ->
            let avail = System.availability sys ~from:sub in
            let catalog = (System.peer sys sub).Axml_peer.Peer.catalog in
            request sub avail catalog sub_rng pick_seed
              requests_per_subscriber))
    sub_ids;
  {
    fc_system = sys;
    fc_publisher = publisher;
    fc_mirrors = mirror_ids;
    fc_subscribers = sub_ids;
    fc_fetch_class = fetch_class;
    fc_requests = subscribers * requests_per_subscriber;
    fc_completed = completed;
    fc_unserved = unserved;
  }

type hotspot = {
  hs_system : System.t;
  hs_writer : Peer_id.t;
  hs_owners : Peer_id.t list;
  hs_spares : Peer_id.t list;
  hs_readers : Peer_id.t list;
  hs_docs : (string * Peer_id.t) list;
  hs_hot : string list;
  hs_requests : int;
  hs_completed : int ref;
  hs_unserved : int ref;
  hs_latencies : float list ref;
}

(* The placement workload (ROADMAP item 3): a skewed read load where a
   [hot_fraction] of the documents draws a [hot_share] of the
   traffic, plus a writer streaming appends into the hot documents —
   the worst case for static placement and the input the adaptive
   controller is built for.

   Determinism contract: document contents and append forests are
   functions of the document {e index}, not of [seed] — so every run
   of the same shape reaches the same Σ content regardless of seed,
   wire or faults (the chaos suite's reference).  The seed drives
   only {e behaviour}: which documents are hot, when readers arrive,
   what they read — exactly the inputs that must make same-seed runs
   replay and cross-seed runs diverge. *)
let hotspot ?(owners = 8) ?(spares = 4) ?(readers = 24) ?(docs = 50)
    ?(hot_fraction = 0.02) ?(hot_share = 0.9) ?(reads_per_reader = 40)
    ?(appends = 10) ?(append_every_ms = 20.0) ?(payload_bytes = 2048)
    ?(think_ms = 2.0) ?(arrival_window_ms = 100.0) ?(steered = false)
    ?wire ?(cpu_ms_per_kb = 0.4) ~seed () =
  if owners < 1 then invalid_arg "Scenarios.hotspot: owners < 1";
  if docs < 1 then invalid_arg "Scenarios.hotspot: docs < 1";
  let writer = Peer_id.of_string "writer0" in
  let owner_ids =
    List.init owners (fun i -> Peer_id.of_string (Printf.sprintf "owner%02d" i))
  in
  let spare_ids =
    List.init spares (fun i -> Peer_id.of_string (Printf.sprintf "spare%02d" i))
  in
  let reader_ids =
    List.init readers (fun i ->
        Peer_id.of_string (Printf.sprintf "reader%03d" i))
  in
  let topology =
    Axml_net.Topology.clustered
      ~intra:(Axml_net.Link.make ~latency_ms:2.0 ~bandwidth_bytes_per_ms:1000.0)
      ~inter:(Axml_net.Link.make ~latency_ms:20.0 ~bandwidth_bytes_per_ms:200.0)
      [ (writer :: owner_ids) @ spare_ids; reader_ids ]
  in
  (* Placement handoffs require Reliable; the static arm runs the
     same transport so the comparison isolates placement itself. *)
  let sys =
    System.create ~transport:System.Reliable ?wire ~cpu_ms_per_kb topology
  in
  let sim = System.sim sys in
  let doc_names = List.init docs (fun i -> Printf.sprintf "doc%03d" i) in
  let owner_of = Array.of_list owner_ids in
  (* Σ population: document [i] lives at owner [i mod owners], with
     index-deterministic content, and is registered as the sole member
     of a same-named generic class in every catalog. *)
  let root_ids = Hashtbl.create docs in
  let docs_with_owners =
    List.mapi
      (fun i name ->
        let owner = owner_of.(i mod owners) in
        let gen = System.gen_of sys owner in
        let body =
          List.init 4 (fun j ->
              Tree.element ~gen (l "item")
                ~attrs:[ ("n", string_of_int j) ]
                [ Tree.text (String.make (payload_bytes / 4) 'x') ])
        in
        let root =
          Tree.element ~gen (l "doc") ~attrs:[ ("name", name) ] body
        in
        Hashtbl.replace root_ids name (Option.get (Tree.id root));
        System.add_document sys owner ~name root;
        System.register_doc_class sys ~class_name:name
          (Names.Doc_ref.make (Names.Doc_name.of_string name) (Names.At owner));
        (name, owner))
      doc_names
  in
  (* The hot set: seed-chosen indices, so different seeds heat
     different documents (and migrate different ones) while the
     universe of contents stays seed-independent. *)
  let hot_count =
    max 1 (int_of_float (Float.round (float_of_int docs *. hot_fraction)))
  in
  let hot_rng = Rng.create ~seed:(seed + 7) in
  let hot_names =
    Rng.shuffle hot_rng doc_names |> fun shuffled ->
    List.filteri (fun i _ -> i < hot_count) shuffled
    |> List.sort String.compare
  in
  (* Streaming appends: the writer fires [appends] rounds into every
     hot document over the run — the traffic a live handoff must
     forward without loss or duplication.  Forests are prebuilt with
     index-deterministic ids and content. *)
  let wgen = System.gen_of sys writer in
  List.iter
    (fun name ->
      let owner = List.assoc name docs_with_owners in
      let node = Hashtbl.find root_ids name in
      for j = 0 to appends - 1 do
        let forest =
          [
            Tree.element ~gen:wgen (l "append")
              ~attrs:[ ("doc", name); ("seq", string_of_int j) ]
              [ Tree.text (Printf.sprintf "update-%s-%d" name j) ];
          ]
        in
        Axml_net.Sim.after sim ~peer:writer
          ~delay_ms:(append_every_ms *. float_of_int (j + 1))
          (fun () ->
            System.send sys ~src:writer ~dst:owner
              (Axml_peer.Message.Insert
                 { node; forest; notify = None }))
      done)
    hot_names;
  (* Readers: a closed loop of generic reads, [hot_share] of them
     aimed at the hot set, resolved through the reader's own pick
     policy — [Random] (static spreading) or the load-steered policy
     fed by the controller's signals. *)
  let hot_arr = Array.of_list hot_names in
  let cold_arr =
    Array.of_list
      (List.filter (fun n -> not (List.mem n hot_names)) doc_names)
  in
  let completed = ref 0 and unserved = ref 0 in
  let latencies = ref [] in
  let rec read reader sub_rng remaining =
    if Axml_obs.Trace.enabled () && Axml_obs.Trace.current_corr () = 0 then
      Axml_obs.Trace.with_corr
        (Axml_obs.Trace.fresh_corr ())
        (fun () -> read reader sub_rng remaining)
    else begin
      let name =
        if Array.length cold_arr = 0 || Rng.float sub_rng 1.0 < hot_share then
          hot_arr.(Rng.int sub_rng (Array.length hot_arr))
        else cold_arr.(Rng.int sub_rng (Array.length cold_arr))
      in
      let t0 = Axml_net.Sim.now sim in
      let key = System.fresh_key sys in
      System.set_cont sys key (fun forest ~final ->
          if final then begin
            if forest = [] then incr unserved
            else begin
              incr completed;
              latencies := (Axml_net.Sim.now sim -. t0) :: !latencies
            end;
            if remaining > 1 then
              Axml_net.Sim.after sim ~peer:reader
                ~delay_ms:(Rng.float sub_rng think_ms)
                (fun () -> read reader sub_rng (remaining - 1))
          end);
      (* Loopback: evaluation starts at the reader, so generic
         resolution uses the reader's catalog and policy. *)
      System.send sys ~src:reader ~dst:reader
        (Axml_peer.Message.Eval_request
           {
             expr = Axml_algebra.Expr.doc_any name;
             replies = [ Axml_peer.Message.Cont { peer = reader; key } ];
             ack = None;
           })
    end
  in
  let arrival_rng = Rng.create ~seed in
  List.iteri
    (fun k reader ->
      (if steered then
         let policy =
           Axml_peer.Placement.steered_policy ~seed:(seed + k) sys
         in
         (System.peer sys reader).Axml_peer.Peer.policy <- policy
       else
         (System.peer sys reader).Axml_peer.Peer.policy
         <- Axml_doc.Generic.Random (seed + k));
      let sub_rng = Rng.create ~seed:((seed * 1_000_003) + k) in
      if reads_per_reader > 0 then
        Axml_net.Sim.after sim ~peer:reader
          ~delay_ms:(arrival_window_ms *. Rng.float arrival_rng 1.0)
          (fun () -> read reader sub_rng reads_per_reader))
    reader_ids;
  {
    hs_system = sys;
    hs_writer = writer;
    hs_owners = owner_ids;
    hs_spares = spare_ids;
    hs_readers = reader_ids;
    hs_docs = docs_with_owners;
    hs_hot = hot_names;
    hs_requests = readers * reads_per_reader;
    hs_completed = completed;
    hs_unserved = unserved;
    hs_latencies = latencies;
  }

type overlap = {
  ov_system : System.t;
  ov_sources : Peer_id.t list;
  ov_subscribers : Peer_id.t list;
  ov_requests : int;
  ov_completed : int ref;
  ov_digests : string list ref;
  ov_latencies : float list ref;
}

(* The semantic-cache workload (ROADMAP item 5): many subscribers
   issuing overlapping continuous queries against shared sources.
   Each subscriber owns a fixed slate of queries — a seed-chosen mix
   of pool queries shared across subscribers and queries unique to it
   — and re-issues the slate every round, with source catalogs
   mutating between rounds.  Repetition across rounds exercises
   subscriber-side caching, the shared pool exercises cross-plan
   sharing at the sources, and the mutations exercise invalidation.

   Determinism contract: rounds are barrier-synchronized, and the
   between-round catalog appends are applied synchronously at the
   barrier (directly in the owning store, not via messages) — so the
   document state each round's queries observe is a pure function of
   the round index.  Per-request results are therefore identical
   whether or not caching is on, whatever the hit/miss interleaving:
   the [ov_digests] multiset is the cache-off/cache-on correctness
   gate. *)
let overlap ?(sources = 4) ?(subscribers = 16) ?(queries_per_subscriber = 4)
    ?(rounds = 3) ?(overlap_pct = 0.5) ?(categories = 4) ?(items = 24)
    ?(payload_bytes = 256) ?(mutate_fraction = 0.25) ?(think_ms = 2.0)
    ?(arrival_window_ms = 20.0) ?(cache = true) ?(cpu_ms_per_kb = 0.2) ~seed ()
    =
  if sources < 1 then invalid_arg "Scenarios.overlap: sources < 1";
  if categories < 1 then invalid_arg "Scenarios.overlap: categories < 1";
  if rounds < 1 then invalid_arg "Scenarios.overlap: rounds < 1";
  let source_ids =
    List.init sources (fun i -> Peer_id.of_string (Printf.sprintf "src%02d" i))
  in
  let sub_ids =
    List.init subscribers (fun i ->
        Peer_id.of_string (Printf.sprintf "sub%03d" i))
  in
  let topology =
    Axml_net.Topology.clustered
      ~intra:(Axml_net.Link.make ~latency_ms:2.0 ~bandwidth_bytes_per_ms:1000.0)
      ~inter:(Axml_net.Link.make ~latency_ms:20.0 ~bandwidth_bytes_per_ms:200.0)
      [ source_ids; sub_ids ]
  in
  let sys =
    System.create ~transport:System.Reliable ~cpu_ms_per_kb topology
  in
  if cache then System.enable_qcache sys;
  let sim = System.sim sys in
  (* Source catalogs: index-deterministic content (the determinism
     contract above), items spread over the categories. *)
  let src_arr = Array.of_list source_ids in
  let root_ids =
    Array.map
      (fun src ->
        let gen = System.gen_of sys src in
        let body =
          List.init items (fun j ->
              Tree.element ~gen (l "item")
                ~attrs:
                  [
                    ("cat", Printf.sprintf "c%d" (j mod categories));
                    ("n", string_of_int j);
                  ]
                [ Tree.text (String.make payload_bytes 'x') ])
        in
        let root = Tree.element ~gen (l "catalog") body in
        System.add_document sys src ~name:"catalog" root;
        Option.get (Tree.id root))
      src_arr
  in
  (* One expression per (source, category, label) triple; ASTs and
     expression nodes are built once and reused across rounds so
     fingerprints and structural equality line up. *)
  let mk_expr ~src_ix ~cat ~label =
    let src = src_arr.(src_ix) in
    let q =
      Axml_query.Parser.parse_exn
        (Printf.sprintf
           "query(1) for $i in $0//item where attr($i, \"cat\") = \"c%d\" \
            return <%s>{$i}</%s>"
           cat label label)
    in
    Axml_algebra.Expr.eval_at src
      (Axml_algebra.Expr.query_at q ~at:src
         ~args:[ Axml_algebra.Expr.doc "catalog" ~at:(Peer_id.to_string src) ])
  in
  (* The shared pool: up to 16 (source, category) selections any
     subscriber may draw; uniques are labeled per (subscriber, slot)
     so they never alias the pool or each other. *)
  let pool_size = min 16 (sources * categories) in
  let pool =
    Array.init pool_size (fun s ->
        mk_expr ~src_ix:(s mod sources) ~cat:(s mod categories)
          ~label:(Printf.sprintf "s%d" s))
  in
  let assign_rng = Rng.create ~seed:(seed + 13) in
  let slates =
    Array.init subscribers (fun k ->
        Array.init queries_per_subscriber (fun j ->
            if Rng.float assign_rng 1.0 < overlap_pct then
              pool.(Rng.int assign_rng pool_size)
            else
              mk_expr
                ~src_ix:((k + j) mod sources)
                ~cat:(j mod categories)
                ~label:(Printf.sprintf "u%dx%d" k j)))
  in
  (* Between-round catalog appends: a rotating [mutate_fraction] slice
     of the sources gains one item per boundary — content a pure
     function of (source, round). *)
  let mutated_count =
    max 0
      (min sources
         (int_of_float (Float.round (mutate_fraction *. float_of_int sources))))
  in
  let mutate_round r =
    for i = 0 to sources - 1 do
      if (i + r) mod sources < mutated_count then begin
        let src = src_arr.(i) in
        let gen = System.gen_of sys src in
        let store = (System.peer sys src).Axml_peer.Peer.store in
        ignore
          (Axml_doc.Store.insert_under store
             (Names.Doc_name.of_string "catalog")
             ~node:root_ids.(i)
             [
               Tree.element ~gen (l "item")
                 ~attrs:
                   [
                     ("cat", Printf.sprintf "c%d" (r mod categories));
                     ("n", Printf.sprintf "r%d" r);
                   ]
                 [ Tree.text (Printf.sprintf "round-%d-src-%d" r i) ];
             ])
      end
    done
  in
  let completed = ref 0 in
  let digests = ref [] in
  let latencies = ref [] in
  let total = subscribers * queries_per_subscriber * rounds in
  (* Closed loop per subscriber within a round; a barrier between
     rounds (mutations apply only once every subscriber finished the
     round, so no query races a catalog change). *)
  let rec run_round r =
    let open_subs = ref subscribers in
    let sub_done () =
      decr open_subs;
      if !open_subs = 0 && r + 1 < rounds then begin
        mutate_round r;
        run_round (r + 1)
      end
    in
    let arrival_rng = Rng.create ~seed:(seed + (r * 7919)) in
    List.iteri
      (fun k sub ->
        let sub_rng = Rng.create ~seed:((seed * 1_000_003) + (r * 8191) + k) in
        let rec issue j =
          if j >= queries_per_subscriber then sub_done ()
          else begin
            let t0 = Axml_net.Sim.now sim in
            let acc = ref [] in
            let key = System.fresh_key sys in
            System.set_cont sys key (fun forest ~final ->
                acc := !acc @ forest;
                if final then begin
                  incr completed;
                  latencies := (Axml_net.Sim.now sim -. t0) :: !latencies;
                  let payload =
                    String.concat "\x00"
                      (List.map Axml_xml.Serializer.to_string !acc)
                  in
                  digests :=
                    Printf.sprintf "%d/%d/%d:%s" k j r
                      (Digest.to_hex (Digest.string payload))
                    :: !digests;
                  Axml_net.Sim.after sim ~peer:sub
                    ~delay_ms:(Rng.float sub_rng think_ms)
                    (fun () -> issue (j + 1))
                end);
            System.send sys ~src:sub ~dst:sub
              (Axml_peer.Message.Eval_request
                 {
                   expr = slates.(k).(j);
                   replies = [ Axml_peer.Message.Cont { peer = sub; key } ];
                   ack = None;
                 })
          end
        in
        if queries_per_subscriber = 0 then sub_done ()
        else
          Axml_net.Sim.after sim ~peer:sub
            ~delay_ms:(Rng.float arrival_rng arrival_window_ms)
            (fun () -> issue 0))
      sub_ids
  in
  run_round 0;
  {
    ov_system = sys;
    ov_sources = source_ids;
    ov_subscribers = sub_ids;
    ov_requests = total;
    ov_completed = completed;
    ov_digests = digests;
    ov_latencies = latencies;
  }

type subscription = {
  sub_system : System.t;
  sub_aggregator : Peer_id.t;
  sub_sources : Peer_id.t list;
  sub_digest_doc : string;
  sub_feed_service : string;
  sub_news_doc : string;
}

let subscription ?(sources = 3) ~seed () =
  let source_ids =
    List.init sources (fun i -> Peer_id.of_string (Printf.sprintf "source%d" i))
  in
  let aggregator = Peer_id.of_string "aggregator" in
  let topology =
    Axml_net.Topology.star ~hub:aggregator
      ~spoke_link:(Axml_net.Link.make ~latency_ms:5.0 ~bandwidth_bytes_per_ms:200.0)
      (aggregator :: source_ids)
  in
  let sys = System.create topology in
  let rng = Rng.create ~seed in
  (* Sources: a news document and a continuous feed over it. *)
  List.iter
    (fun s ->
      let gen = System.gen_of sys s in
      let initial =
        List.init (1 + Rng.int rng 2) (fun i ->
            Tree.element ~gen (l "news")
              ~attrs:[ ("source", Peer_id.to_string s) ]
              [ Tree.text (Printf.sprintf "initial-%s-%d" (Peer_id.to_string s) i) ])
      in
      System.add_document sys s ~name:"news"
        (Tree.element ~gen (l "newsfeed") initial);
      System.add_service sys s
        (Axml_doc.Service.doc_feed ~name:"feed" ~doc:"news"))
    source_ids;
  (* Aggregator: a digest document with one call per source, each
     forwarding into the digest's items node. *)
  let gen = System.gen_of sys aggregator in
  let items = Tree.element ~gen (l "items") [] in
  let items_id = Option.get (Tree.id items) in
  let calls =
    List.map
      (fun s ->
        Axml_doc.Sc.to_tree ~gen
          (Axml_doc.Sc.make
             ~forward:[ Names.Node_ref.make ~node:items_id ~peer:aggregator ]
             ~provider:(Names.At s) ~service:"feed" []))
      source_ids
  in
  System.add_document sys aggregator ~name:"digest"
    (Tree.element ~gen (l "digest") (items :: calls));
  ignore (System.activate_all sys ~peer:aggregator ());
  {
    sub_system = sys;
    sub_aggregator = aggregator;
    sub_sources = source_ids;
    sub_digest_doc = "digest";
    sub_feed_service = "feed";
    sub_news_doc = "news";
  }

let publish sub ~source ~headline =
  let sys = sub.sub_system in
  let peer = System.peer sys source in
  (* Only the Insert target's id is wanted: a quiet lookup, not a read. *)
  match Axml_doc.Store.peek_by_string peer.Axml_peer.Peer.store sub.sub_news_doc with
  | None -> invalid_arg "Scenarios.publish: unknown source document"
  | Some doc -> (
      let gen = System.gen_of sys source in
      let item =
        Tree.element ~gen (l "news")
          ~attrs:[ ("source", Peer_id.to_string source) ]
          [ Tree.text headline ]
      in
      let root = Axml_doc.Document.root doc in
      match Tree.id root with
      | None -> ()
      | Some node ->
          (* Route through the system's own Insert handling so the
             feed's watchers fire. *)
          System.send sys ~src:source ~dst:source
            (Axml_peer.Message.Insert
               { node; forest = [ item ]; notify = None }))
