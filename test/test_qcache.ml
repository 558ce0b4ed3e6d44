(* Semantic result cache suite (DESIGN.md §18).

   Four layers, mirroring the module's trust chain:

   - unit tests against [Qcache] itself (hit/miss/install, collision
     hardening, stale drops, eager invalidation, LRU eviction);
   - directed regressions for every [Store] mutation path the
     invalidation protocol leans on (add/update/update_root/
     insert_under/install/remove, the Migrate_doc/Retract_doc apply
     paths, crash-restart fresh stamps);
   - exec-level tests: repeat evaluation hits with strictly fewer
     bytes, mutation invalidates, [run_optimized] rewrites a matching
     plan into a literal read (cross-plan rule (13)), sc-rooted
     results are never cached;
   - properties: a no-alias qcheck over random expressions, and a
     200-case chaos property — cache-on under drops, partitions and
     crash-restarts must reproduce the cache-off fault-free results
     and Σ content. *)

open Axml
open Helpers
module Expr = Algebra.Expr
module Names = Doc.Names
module System = Runtime.System
module Exec = Runtime.Exec
module Message = Runtime.Message
module RPeer = Runtime.Peer
module Fault = Net.Fault
module Sim = Net.Sim
module Qcache = Query.Qcache

let p1 = peer "p1"
let p2 = peer "p2"
let p3 = peer "p3"

let qfp e =
  let fp = Expr.fingerprint e in
  {
    Qcache.hash = fp.Expr.Fingerprint.hash;
    size = fp.Expr.Fingerprint.size;
    depth = fp.Expr.Fingerprint.depth;
  }

(* Never consulted: entries installed with [deps = [||]] carry no pins. *)
let no_current ~peer:_ ~doc:_ = None

(* --- unit: the cache data structure -------------------------------- *)

let fp1 = { Qcache.hash = 1; size = 1; depth = 1 }
let fp2 = { Qcache.hash = 2; size = 1; depth = 1 }
let fp3 = { Qcache.hash = 3; size = 1; depth = 1 }

let test_unit_hit_miss_install () =
  let c = Qcache.create ~equal:Int.equal () in
  Alcotest.(check bool) "empty cache misses" true
    (Qcache.find c ~fp:fp1 ~expr:1 ~current:no_current = None);
  Qcache.install c ~fp:fp1 ~expr:1 ~deps:[||] ~forest:[ txt "one" ];
  (match Qcache.find c ~fp:fp1 ~expr:1 ~current:no_current with
  | Some f -> check_canonical_forests "served forest" [ txt "one" ] f
  | None -> Alcotest.fail "installed entry not served");
  Qcache.install c ~fp:fp1 ~expr:1 ~deps:[||] ~forest:[ txt "uno" ];
  (match Qcache.find c ~fp:fp1 ~expr:1 ~current:no_current with
  | Some f -> check_canonical_forests "reinstall replaces" [ txt "uno" ] f
  | None -> Alcotest.fail "reinstalled entry not served");
  Alcotest.(check int) "one live entry" 1 (Qcache.length c);
  let st = Qcache.stats c in
  Alcotest.(check int) "hits" 2 st.Qcache.hits;
  Alcotest.(check int) "misses" 1 st.Qcache.misses;
  Alcotest.(check int) "installs" 2 st.Qcache.installs;
  Qcache.clear c;
  Alcotest.(check int) "cleared" 0 (Qcache.length c)

let test_unit_collision () =
  let c = Qcache.create ~equal:Int.equal () in
  Qcache.install c ~fp:fp1 ~expr:1 ~deps:[||] ~forest:[ txt "one" ];
  (* Same fingerprint, different expression: must never alias. *)
  Alcotest.(check bool) "collision is a miss" true
    (Qcache.find c ~fp:fp1 ~expr:2 ~current:no_current = None);
  let st = Qcache.stats c in
  Alcotest.(check int) "collision counted" 1 st.Qcache.collisions;
  Alcotest.(check int) "and it is also a miss" 1 st.Qcache.misses;
  Alcotest.(check bool) "original entry survives" true
    (Qcache.find c ~fp:fp1 ~expr:1 ~current:no_current <> None)

let test_unit_stale_drop () =
  let c = Qcache.create ~equal:Int.equal () in
  Qcache.install c ~fp:fp1 ~expr:1 ~deps:[| ("p2", "d", 5) |]
    ~forest:[ txt "one" ];
  (* Unchanged version: served. *)
  Alcotest.(check bool) "fresh entry served" true
    (Qcache.find c ~fp:fp1 ~expr:1
       ~current:(fun ~peer:_ ~doc:_ -> Some 5)
    <> None);
  (* Bumped version: dropped, never served. *)
  Alcotest.(check bool) "stale entry missed" true
    (Qcache.find c ~fp:fp1 ~expr:1
       ~current:(fun ~peer:_ ~doc:_ -> Some 6)
    = None);
  Alcotest.(check int) "entry dropped" 0 (Qcache.length c);
  Alcotest.(check int) "stale drop counted" 1 (Qcache.stats c).Qcache.stale_drops;
  (* Vanished document is as stale as a new version. *)
  Qcache.install c ~fp:fp1 ~expr:1 ~deps:[| ("p2", "d", 7) |]
    ~forest:[ txt "one" ];
  Alcotest.(check bool) "vanished dep missed" true
    (Qcache.find c ~fp:fp1 ~expr:1 ~current:no_current = None);
  Alcotest.(check int) "second stale drop" 2 (Qcache.stats c).Qcache.stale_drops

let test_unit_invalidate_dep () =
  let c = Qcache.create ~equal:Int.equal () in
  Qcache.install c ~fp:fp1 ~expr:1 ~deps:[| ("p2", "d", 5) |]
    ~forest:[ txt "one" ];
  Qcache.install c ~fp:fp2 ~expr:2 ~deps:[| ("p2", "d", 5); ("p3", "e", 9) |]
    ~forest:[ txt "two" ];
  Qcache.install c ~fp:fp3 ~expr:3 ~deps:[| ("p3", "e", 9) |]
    ~forest:[ txt "three" ];
  Qcache.invalidate_dep c ~peer:"p2" ~doc:"d";
  Alcotest.(check int) "both (p2,d) entries dropped" 1 (Qcache.length c);
  Alcotest.(check int) "invalidations counted" 2
    (Qcache.stats c).Qcache.invalidations;
  Alcotest.(check bool) "unrelated entry survives" true
    (Qcache.find c ~fp:fp3 ~expr:3
       ~current:(fun ~peer:_ ~doc:_ -> Some 9)
    <> None);
  (* Idempotent on an already-clean dependency. *)
  Qcache.invalidate_dep c ~peer:"p2" ~doc:"d";
  Alcotest.(check int) "no further invalidations" 2
    (Qcache.stats c).Qcache.invalidations

let test_unit_lru_eviction () =
  let c = Qcache.create ~capacity:2 ~equal:Int.equal () in
  Qcache.install c ~fp:fp1 ~expr:1 ~deps:[||] ~forest:[ txt "one" ];
  Qcache.install c ~fp:fp2 ~expr:2 ~deps:[||] ~forest:[ txt "two" ];
  (* Touch entry 1 so entry 2 becomes the least recently probed. *)
  ignore (Qcache.find c ~fp:fp1 ~expr:1 ~current:no_current);
  Qcache.install c ~fp:fp3 ~expr:3 ~deps:[||] ~forest:[ txt "three" ];
  Alcotest.(check int) "capacity held" 2 (Qcache.length c);
  Alcotest.(check int) "one eviction" 1 (Qcache.stats c).Qcache.evictions;
  Alcotest.(check bool) "recently probed entry kept" true
    (Qcache.find c ~fp:fp1 ~expr:1 ~current:no_current <> None);
  Alcotest.(check bool) "coldest entry evicted" true
    (Qcache.find c ~fp:fp2 ~expr:2 ~current:no_current = None)

let test_unit_probe_accounting () =
  let c = Qcache.create ~equal:Int.equal () in
  Qcache.install c ~fp:fp1 ~expr:1 ~deps:[||] ~forest:[ txt "one" ];
  (* [probe] serves without touching hit/miss; [record_hit] settles
     the account afterwards (the plan-rewrite protocol). *)
  Alcotest.(check bool) "probe serves" true
    (Qcache.probe c ~fp:fp1 ~expr:1 ~current:no_current <> None);
  Alcotest.(check bool) "probe misses silently" true
    (Qcache.probe c ~fp:fp2 ~expr:2 ~current:no_current = None);
  let st = Qcache.stats c in
  Alcotest.(check int) "no hits accounted" 0 st.Qcache.hits;
  Alcotest.(check int) "no misses accounted" 0 st.Qcache.misses;
  Qcache.record_hit c;
  Alcotest.(check int) "recorded hit" 1 (Qcache.stats c).Qcache.hits

(* --- directed: Store version stamps -------------------------------- *)

(* Every mutation path must draw a fresh monotonic stamp and fire the
   mutation hook; [remove] must clear the stamp.  A missed bump here
   is a stale-cache-served bug at the exec layer. *)
let test_store_version_bumps () =
  let st = Doc.Store.create () in
  let fired = ref 0 in
  Doc.Store.set_on_mutate st (fun _ -> incr fired);
  let g = gen () in
  let name = Names.Doc_name.of_string "a" in
  let version () = Option.get (Doc.Store.version_of st name) in

  Doc.Store.add st (Doc.Document.make ~name:"a" (elt g "r" []));
  let v_add = version () in
  Alcotest.(check int) "add fires the hook" 1 !fired;

  Doc.Store.update st (Doc.Document.make ~name:"a" (elt g "r" [ txt "x" ]));
  let v_update = version () in
  Alcotest.(check bool) "update bumps" true (v_update > v_add);
  Alcotest.(check int) "update fires the hook" 2 !fired;

  Alcotest.(check bool) "update_root applied" true
    (Doc.Store.update_root st name (fun r -> r));
  let v_root = version () in
  Alcotest.(check bool) "update_root bumps (even identity)" true
    (v_root > v_update);
  Alcotest.(check int) "update_root fires the hook" 3 !fired;

  let root_id =
    Option.get
      (Xml.Tree.id (Doc.Document.root (Option.get (Doc.Store.peek st name))))
  in
  Alcotest.(check bool) "insert_under applied" true
    (Doc.Store.insert_under st name ~node:root_id [ elt g "k" [] ] <> None);
  let v_insert = version () in
  Alcotest.(check bool) "insert_under bumps" true (v_insert > v_root);
  Alcotest.(check int) "insert_under fires the hook" 4 !fired;

  let b = Doc.Store.install st ~name:"b" (elt g "s" []) in
  Alcotest.(check bool) "install stamps" true
    (Doc.Store.version_of st b <> None);
  Alcotest.(check int) "install fires the hook" 5 !fired;

  Doc.Store.remove st name;
  Alcotest.(check bool) "remove clears the stamp" true
    (Doc.Store.version_of st name = None);
  Alcotest.(check int) "remove fires the hook" 6 !fired;
  (* Removing an absent document is a quiet no-op. *)
  Doc.Store.remove st name;
  Alcotest.(check int) "absent remove is silent" 6 !fired

(* The global counter is never reused: re-adding identical content
   draws a fresh stamp, so a pinned (doc, version) detects it. *)
let test_store_stamps_never_reused () =
  let g = gen () in
  let mk () =
    let st = Doc.Store.create () in
    Doc.Store.add st (Doc.Document.make ~name:"a" (elt g "r" [ txt "z" ]));
    Option.get (Doc.Store.version_of st (Names.Doc_name.of_string "a"))
  in
  let v1 = mk () in
  let v2 = mk () in
  Alcotest.(check bool) "same content, distinct stamps across stores" true
    (v1 <> v2)

(* Migrate_doc install-or-replace and Retract_doc must maintain the
   destination's stamps like any local mutation. *)
let test_migrate_retract_versions () =
  let sys = System.create ~transport:System.Reliable (mesh [ "p1"; "p2" ]) in
  let g = gen () in
  let waits = ref 0 in
  let send_and_wait payload =
    let key = System.fresh_key sys in
    System.set_cont sys key (fun _ ~final -> if final then incr waits);
    (match payload with
    | `Migrate forest ->
        System.send sys ~src:p1 ~dst:p2
          (Message.Migrate_doc
             { name = "m"; forest; notify = Some (p1, key) })
    | `Retract ->
        System.send sys ~src:p1 ~dst:p2
          (Message.Retract_doc { name = "m"; notify = Some (p1, key) }));
    let out, _ = System.run sys in
    Alcotest.(check bool) "quiescent" true (out = `Quiescent)
  in
  send_and_wait (`Migrate [ elt g "m" [ txt "one" ] ]);
  let v1 = System.doc_version sys ~peer:p2 ~doc:"m" in
  Alcotest.(check bool) "migrate apply stamps the replica" true (v1 <> None);
  (* Idempotent re-shipment replaces — and must re-stamp. *)
  send_and_wait (`Migrate [ elt g "m" [ txt "two" ] ]);
  let v2 = System.doc_version sys ~peer:p2 ~doc:"m" in
  Alcotest.(check bool) "re-shipment bumps" true (v2 <> None && v2 <> v1);
  send_and_wait `Retract;
  Alcotest.(check bool) "retract clears" true
    (System.doc_version sys ~peer:p2 ~doc:"m" = None);
  Alcotest.(check int) "every apply acknowledged" 3 !waits

(* Crash-restart reloads draw fresh stamps even for byte-identical
   checkpointed content: a pre-crash cache pin can never revalidate. *)
let test_crash_restart_fresh_stamps () =
  let sys = System.create ~transport:System.Reliable (mesh [ "p1"; "p2" ]) in
  let _fo = Runtime.Failover.enable sys in
  let g = gen () in
  System.add_document sys p2 ~name:"d" (elt g "r" [ txt "z" ]);
  let v0 = Option.get (System.doc_version sys ~peer:p2 ~doc:"d") in
  System.crash sys p2;
  Alcotest.(check bool) "crashed peer has no versions" true
    (System.doc_version sys ~peer:p2 ~doc:"d" = None);
  System.restart sys p2;
  ignore (System.run sys);
  let v1 = System.doc_version sys ~peer:p2 ~doc:"d" in
  Alcotest.(check bool) "restored document is stamped" true (v1 <> None);
  Alcotest.(check bool) "with a fresh stamp" true (v1 <> Some v0)

(* --- exec: cache in front of the operational semantics ------------- *)

let catalog_query =
  query
    "query(1) for $i in $0//item where attr($i, \"cat\") = \"c0\" return \
     <r>{$i}</r>"

(* Built once: repeat issues must be the same structural expression. *)
let catalog_plan =
  Expr.eval_at p2
    (Expr.query_at catalog_query ~at:p2
       ~args:[ Expr.doc "catalog" ~at:"p2" ])

let exec_system ~cache () =
  let sys = System.create ~transport:System.Reliable (mesh [ "p1"; "p2" ]) in
  if cache then System.enable_qcache sys;
  let g = System.gen_of sys p2 in
  let root =
    elt g "catalog"
      (List.init 6 (fun i ->
           elt g "item"
             ~attrs:[ ("cat", Printf.sprintf "c%d" (i mod 2)) ]
             [ txt (Printf.sprintf "v%d" i) ]))
  in
  System.add_document sys p2 ~name:"catalog" root;
  (sys, Option.get (Xml.Tree.id root))

let append_item sys root =
  let g = System.gen_of sys p2 in
  let store = (System.peer sys p2).RPeer.store in
  ignore
    (Doc.Store.insert_under store
       (Names.Doc_name.of_string "catalog")
       ~node:root
       [ elt g "item" ~attrs:[ ("cat", "c0") ] [ txt "fresh" ] ])

let test_exec_repeat_hit () =
  let sys, _ = exec_system ~cache:true () in
  let o1 = Exec.run_to_quiescence sys ~ctx:p1 catalog_plan in
  let o2 = Exec.run_to_quiescence sys ~ctx:p1 catalog_plan in
  Alcotest.(check bool) "both finished" true (o1.finished && o2.finished);
  check_canonical_forests "identical results" o1.results o2.results;
  Alcotest.(check bool) "first run paid the network" true
    (o1.stats.Net.Stats.bytes > 0);
  Alcotest.(check int) "repeat run is free: zero bytes" 0
    o2.stats.Net.Stats.bytes;
  Alcotest.(check int) "and zero messages" 0 o2.stats.Net.Stats.messages;
  let st = System.qcache_stats sys in
  Alcotest.(check bool) "hit recorded" true (st.Qcache.hits >= 1);
  Alcotest.(check bool) "install recorded" true (st.Qcache.installs >= 1)

(* A crash discards the peer's cache, not what the cache counted: the
   system's totals keep the warm cache's hits, and the fresh cache the
   restarted peer gets counts on top of them. *)
let test_exec_counts_survive_crash () =
  let sys, _ = exec_system ~cache:true () in
  ignore (Exec.run_to_quiescence sys ~ctx:p1 catalog_plan);
  ignore (Exec.run_to_quiescence sys ~ctx:p1 catalog_plan);
  let warm = System.qcache_stats sys in
  Alcotest.(check bool) "warm cache hit" true (warm.Qcache.hits >= 1);
  System.crash sys p1;
  System.restart sys p1;
  let restarted = System.qcache_stats sys in
  Alcotest.(check int) "hits survive the crash" warm.hits restarted.Qcache.hits;
  Alcotest.(check bool) "every count survives" true (restarted = warm);
  let o = Exec.run_to_quiescence sys ~ctx:p1 catalog_plan in
  Alcotest.(check bool) "cold again: the run paid the network" true
    (o.stats.Net.Stats.bytes > 0);
  let after = System.qcache_stats sys in
  Alcotest.(check bool) "the fresh cache installs on top" true
    (after.Qcache.installs > warm.installs);
  Alcotest.(check bool) "hits never fall" true (after.hits >= warm.hits)

let test_exec_mutation_invalidation () =
  let sys, root = exec_system ~cache:true () in
  let o1 = Exec.run_to_quiescence sys ~ctx:p1 catalog_plan in
  let o2 = Exec.run_to_quiescence sys ~ctx:p1 catalog_plan in
  check_canonical_forests "warm hit" o1.results o2.results;
  append_item sys root;
  let o3 = Exec.run_to_quiescence sys ~ctx:p1 catalog_plan in
  (* The mutated catalog has one more c0 item than the cached result:
     serving stale would be visible immediately. *)
  Alcotest.(check int) "post-mutation result reflects the append"
    (List.length o2.results + 1)
    (List.length o3.results);
  (* And it matches a cache-free evaluation of the same mutated state. *)
  let ref_sys, ref_root = exec_system ~cache:false () in
  append_item ref_sys ref_root;
  let r = Exec.run_to_quiescence ref_sys ~ctx:p1 catalog_plan in
  check_canonical_forests "matches cache-off evaluation" r.results o3.results;
  let st = System.qcache_stats sys in
  Alcotest.(check bool) "eager invalidation fired at the source" true
    (st.Qcache.invalidations >= 1);
  Alcotest.(check bool) "stale pin dropped at the reader" true
    (st.Qcache.stale_drops >= 1)

let test_run_optimized_rewrite () =
  let sys, _ = exec_system ~cache:true () in
  let _, o1 = Exec.run_optimized sys ~ctx:p1 catalog_plan in
  let planned2, o2 = Exec.run_optimized sys ~ctx:p1 catalog_plan in
  Alcotest.(check bool)
    "second plan rewritten to a literal read (rule (13))" true
    (match planned2.Algebra.Planner.plan with
    | Expr.Data_at _ -> true
    | _ -> false);
  check_canonical_forests "rewritten plan, identical results" o1.results
    o2.results;
  Alcotest.(check int) "rewritten run is free" 0 o2.stats.Net.Stats.bytes

let test_sc_rooted_never_cached () =
  let sys = System.create ~transport:System.Reliable (mesh [ "p1"; "p2" ]) in
  System.enable_qcache sys;
  let g = System.gen_of sys p2 in
  let sc = Doc.Sc.make ~provider:(Names.At p2) ~service:"feed" [] in
  System.add_document sys p2 ~name:"scdoc" (Doc.Sc.to_tree ~gen:g sc);
  let e = Expr.doc "scdoc" ~at:"p2" in
  let o1 = Exec.run_to_quiescence sys ~ctx:p1 e in
  let o2 = Exec.run_to_quiescence sys ~ctx:p1 e in
  check_canonical_forests "both runs agree" o1.results o2.results;
  let st = System.qcache_stats sys in
  Alcotest.(check int)
    "sc-rooted results are never installed (activation semantics)" 0
    st.Qcache.installs;
  Alcotest.(check int) "and so never hit" 0 st.Qcache.hits;
  Alcotest.(check bool) "the probes did happen" true (st.Qcache.misses >= 2)

(* --- the overlap workload: cache-on ≡ cache-off, for less ---------- *)

let overlap_arm ~cache =
  let ov =
    Workload.Scenarios.overlap ~sources:2 ~subscribers:4
      ~queries_per_subscriber:3 ~rounds:3 ~overlap_pct:0.6 ~categories:2
      ~items:8 ~payload_bytes:32 ~cache ~seed:11 ()
  in
  let sys = ov.Workload.Scenarios.ov_system in
  let out, _ = System.run sys in
  Alcotest.(check bool) "quiescent" true (out = `Quiescent);
  Alcotest.(check int) "every request completed"
    ov.Workload.Scenarios.ov_requests
    !(ov.Workload.Scenarios.ov_completed);
  ( List.sort String.compare !(ov.Workload.Scenarios.ov_digests),
    (System.stats sys).Net.Stats.bytes,
    System.qcache_stats sys )

let test_overlap_digest_equality () =
  let off_digests, off_bytes, _ = overlap_arm ~cache:false in
  let on_digests, on_bytes, on_stats = overlap_arm ~cache:true in
  Alcotest.(check (list string))
    "per-request digests are byte-identical across arms" off_digests
    on_digests;
  Alcotest.(check bool) "the cache actually fired" true
    (on_stats.Qcache.hits > 0);
  Alcotest.(check bool) "and invalidation too" true
    (on_stats.Qcache.invalidations + on_stats.Qcache.stale_drops > 0);
  Alcotest.(check bool) "cache-on moves strictly fewer bytes" true
    (on_bytes < off_bytes)

(* --- property: the cache never aliases distinct expressions -------- *)

let alias_pool =
  lazy
    (let q0 = catalog_query in
     let q1 =
       query
         "query(1) for $i in $0//item where attr($i, \"cat\") = \"c1\" \
          return <r>{$i}</r>"
     in
     [|
       Expr.doc "a" ~at:"p1";
       Expr.doc "b" ~at:"p1";
       Expr.doc "a" ~at:"p2";
       Expr.query_at q0 ~at:p1 ~args:[ Expr.doc "a" ~at:"p1" ];
       Expr.query_at q0 ~at:p1 ~args:[ Expr.doc "b" ~at:"p1" ];
       Expr.query_at q1 ~at:p1 ~args:[ Expr.doc "a" ~at:"p1" ];
       Expr.eval_at p2 (Expr.doc "a" ~at:"p1");
       Expr.eval_at p2 (Expr.query_at q1 ~at:p2 ~args:[ Expr.doc "b" ~at:"p2" ]);
     |])

(* Accumulated across cases: drawing equal pairs must actually happen
   or the property is vacuous. *)
let alias_serves_seen = ref 0

let alias_property =
  QCheck.Test.make ~count:200
    ~name:"a probe serves exactly the structurally equal expression"
    (QCheck.make
       ~print:(fun (i, j) -> Printf.sprintf "pool[%d] vs pool[%d]" i j)
       QCheck.Gen.(pair (int_bound 7) (int_bound 7)))
    (fun (i, j) ->
      let pool = Lazy.force alias_pool in
      let a = pool.(i) and b = pool.(j) in
      let c = Qcache.create ~equal:Expr.equal () in
      Qcache.install c ~fp:(qfp a) ~expr:a ~deps:[||] ~forest:[ txt "marker" ];
      let served = Qcache.find c ~fp:(qfp b) ~expr:b ~current:no_current in
      if served <> None then incr alias_serves_seen;
      (served <> None) = Expr.equal a b)

(* --- property: chaos — faults never turn the cache into lies ------- *)

(* A three-peer plan driven from p1 (never crashed): two waves of
   sequentially chained reads and appends against the catalogs of
   p2/p3, the second wave scheduled after both sources have crashed
   and restarted from checkpoints.  Cache-on under random drops,
   duplicates, jitter, a partition and the two crash-restarts must
   reproduce, position by position, the results of the fault-free
   cache-off run — and the same Σ content.  Crashes wipe the victims'
   volatile caches; the restart reload draws fresh stamps, so the
   driver's surviving pins go stale instead of revalidating. *)

let chaos_q0 = catalog_query

let chaos_q1 =
  query
    "query(1) for $i in $0//item where attr($i, \"cat\") = \"c1\" return \
     <r>{$i}</r>"

let chaos_expr src q =
  Expr.eval_at src
    (Expr.query_at q ~at:src
       ~args:[ Expr.doc "catalog" ~at:(Net.Peer_id.to_string src) ])

(* Built once; repeat issues share the structural expression. *)
let e20 = chaos_expr p2 chaos_q0
let e21 = chaos_expr p2 chaos_q1
let e30 = chaos_expr p3 chaos_q0

let chaos_system ~cache () =
  let sys =
    System.create ~transport:System.Reliable (mesh [ "p1"; "p2"; "p3" ])
  in
  let _fo = Runtime.Failover.enable sys in
  if cache then System.enable_qcache sys;
  let catalog p tag =
    let g = System.gen_of sys p in
    let root =
      elt g "catalog"
        (List.init 5 (fun i ->
             elt g "item"
               ~attrs:[ ("cat", Printf.sprintf "c%d" (i mod 2)) ]
               [ txt (Printf.sprintf "%s%d" tag i) ]))
    in
    System.add_document sys p ~name:"catalog" root;
    Option.get (Xml.Tree.id root)
  in
  let root2 = catalog p2 "b" in
  ignore (catalog p3 "c");
  (sys, root2)

type chaos_op = Q of Expr.t | Append of Net.Peer_id.t * int

(* Run [ops] strictly one after the other — each starts only once the
   previous completed — so the catalog state any query observes is a
   pure function of its chain position, whatever the fault timing. *)
let run_chain sys ~root2 ~results ops k =
  let rec go = function
    | [] -> k ()
    | Q e :: rest ->
        let acc = ref [] in
        let key = System.fresh_key sys in
        System.set_cont sys key (fun forest ~final ->
            acc := !acc @ forest;
            if final then begin
              results := !acc :: !results;
              go rest
            end);
        System.send sys ~src:p1 ~dst:p1
          (Message.Eval_request
             { expr = e; replies = [ Message.Cont { peer = p1; key } ]; ack = None })
    | Append (dst, tag) :: rest ->
        let g = gen () in
        let key = System.fresh_key sys in
        System.set_cont sys key (fun _ ~final -> if final then go rest);
        System.send sys ~src:p1 ~dst
          (Message.Insert
             {
               node = root2;
               forest =
                 [
                   elt g "item"
                     ~attrs:[ ("cat", "c0") ]
                     [ txt (Printf.sprintf "add%d" tag) ];
                 ];
               notify = Some (p1, key);
             })
  in
  go ops

let chaos_wave1 = [ Q e20; Q e20; Append (p2, 1); Q e20; Q e30; Q e30 ]
let chaos_wave2 = [ Append (p2, 2); Q e20; Q e20; Q e21; Q e30 ]
let chaos_queries = 9 (* Q ops across both waves *)

let qcache_chaos_run ~cache ~fault () =
  let sys, root2 = chaos_system ~cache () in
  Option.iter (System.inject_faults sys) fault;
  let sim = System.sim sys in
  let results = ref [] in
  run_chain sys ~root2 ~results chaos_wave1 (fun () ->
      (* Second wave strictly after both crash-restarts have healed. *)
      Sim.after sim ~peer:p1
        ~delay_ms:(Float.max 0.1 (3300.0 -. Sim.now sim))
        (fun () -> run_chain sys ~root2 ~results chaos_wave2 (fun () -> ())));
  let out, _ = System.run sys in
  ( List.rev !results,
    System.content_fingerprint sys,
    (System.qcache_stats sys).Qcache.hits,
    out = `Quiescent )

let qcache_chaos_reference =
  lazy
    (let results, fp, _, quiescent = qcache_chaos_run ~cache:false ~fault:None () in
     assert quiescent;
     assert (List.length results = chaos_queries);
     (results, fp))

let qcache_chaos_plan ~seed =
  let r = Net.Rng.create ~seed:((seed * 17) + 3) in
  let profile =
    {
      Fault.drop = 0.15 *. Net.Rng.float r 1.0;
      duplicate = 0.05 *. Net.Rng.float r 1.0;
      jitter_ms = 3.0 *. Net.Rng.float r 1.0;
    }
  in
  let island = [ (if Net.Rng.int r 2 = 0 then p2 else p3) ] in
  Fault.make ~profile
    ~events:
      [
        Fault.Partition
          { island; window = Fault.window ~from_ms:100.0 ~until_ms:250.0 };
        Fault.Crash { peer = p2; at_ms = 2000.0; restart_ms = Some 2250.0 };
        Fault.Crash { peer = p3; at_ms = 2600.0; restart_ms = Some 2850.0 };
      ]
    ~quiet_after_ms:400.0 ~seed ()

(* Accumulated across all 200 cases: a run that never serves from the
   cache proves nothing — the non-vacuity case below fails then. *)
let chaos_hits_seen = ref 0

let qcache_chaos_property =
  QCheck.Test.make ~count:200
    ~name:
      "cache-on under drops/partitions/crash-restarts reproduces the \
       cache-off fault-free results and Σ content"
    (QCheck.make
       ~print:(fun seed -> Printf.sprintf "fault_seed=%d" seed)
       QCheck.Gen.(int_bound 99_999))
    (fun seed ->
      let ref_results, ref_fp = Lazy.force qcache_chaos_reference in
      let results, fp, hits, quiescent =
        qcache_chaos_run ~cache:true ~fault:(Some (qcache_chaos_plan ~seed)) ()
      in
      chaos_hits_seen := !chaos_hits_seen + hits;
      quiescent
      && List.length results = chaos_queries
      && List.for_all2 Xml.Canonical.equal_forest ref_results results
      && String.equal ref_fp fp)

let suite =
  [
    ("unit: hit, miss, install, replace", `Quick, test_unit_hit_miss_install);
    ("unit: fingerprint collision never aliases", `Quick, test_unit_collision);
    ("unit: stale pins are dropped, never served", `Quick, test_unit_stale_drop);
    ("unit: eager invalidation by dependency", `Quick, test_unit_invalidate_dep);
    ("unit: LRU eviction under capacity", `Quick, test_unit_lru_eviction);
    ("unit: probe/record_hit accounting", `Quick, test_unit_probe_accounting);
    ("store: every mutation path bumps", `Quick, test_store_version_bumps);
    ("store: stamps are never reused", `Quick, test_store_stamps_never_reused);
    ( "store: migrate/retract apply maintains stamps",
      `Quick,
      test_migrate_retract_versions );
    ( "store: crash-restart reload draws fresh stamps",
      `Quick,
      test_crash_restart_fresh_stamps );
    ("exec: repeat evaluation hits for zero bytes", `Quick, test_exec_repeat_hit);
    ("exec: a crash keeps the cache's counts", `Quick, test_exec_counts_survive_crash);
    ( "exec: mutation invalidates before the next read",
      `Quick,
      test_exec_mutation_invalidation );
    ("exec: run_optimized rewrites a cached plan", `Quick, test_run_optimized_rewrite);
    ("exec: sc-rooted results are never cached", `Quick, test_sc_rooted_never_cached);
    ( "overlap: cache-on matches cache-off digests for fewer bytes",
      `Quick,
      test_overlap_digest_equality );
    QCheck_alcotest.to_alcotest alias_property;
    ( "alias property actually served equal pairs",
      `Quick,
      fun () ->
        Alcotest.(check bool) "at least one equal pair drawn" true
          (!alias_serves_seen > 0) );
    QCheck_alcotest.to_alcotest qcache_chaos_property;
    ( "chaos property actually served from the cache",
      `Quick,
      fun () ->
        Alcotest.(check bool) "hits across the 200 cases" true
          (!chaos_hits_seen > 0) );
  ]
