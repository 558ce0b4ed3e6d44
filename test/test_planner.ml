(* The unified planner: fingerprint soundness, best-first against an
   exhaustive optimality oracle, reproducibility, and the planner's
   two-layer (rewrite search + per-site query optimization)
   pipeline. *)

open Axml
open Helpers
module Expr = Algebra.Expr
module Optimizer = Algebra.Optimizer
module Planner = Algebra.Planner

let p1 = peer "p1"
let p2 = peer "p2"
let p3 = peer "p3"
let all_peers = [ p1; p2; p3 ]
let topo = mesh ~latency:10.0 ~bandwidth:100.0 [ "p1"; "p2"; "p3" ]

(* Large documents make delegation/pushing clearly profitable, so the
   search has something to find. *)
let env = Algebra.Cost.default_env ~doc_bytes:(fun _ -> 60_000) topo
let sel_query = Workload.Xml_gen.selection_query ()

let join_query =
  query "query(2) for $a in $0, $b in $1 return <pair>{$a}{$b}</pair>"

let fixtures =
  [
    ("select", Expr.query_at sel_query ~at:p1 ~args:[ Expr.doc "cat" ~at:"p2" ]);
    ( "self-join",
      Expr.query_at join_query ~at:p1
        ~args:[ Expr.doc "cat" ~at:"p2"; Expr.doc "cat" ~at:"p2" ] );
    ( "join-2-peers",
      Expr.query_at join_query ~at:p1
        ~args:[ Expr.doc "cat" ~at:"p2"; Expr.doc "cat" ~at:"p3" ] );
  ]

let run strategy plan = Optimizer.optimize ~env ~ctx:p1 strategy plan
let weight (r : Optimizer.result) = Algebra.Cost.weighted r.cost

(* --- the exhaustive oracle --------------------------------------- *)

(* Breadth-first closure of the rewrite relation to [depth] levels,
   deduplicated by a linear scan with structural Expr.equal: optimal
   within the bound, exponential in it.  Expanding with
   Optimizer.rewrites makes it rebuild the plans best-first finds,
   auxiliary names included.  Returns the first cheapest plan found
   and its cost. *)
let exhaustive ~env ~ctx ~depth plan =
  let peers = Net.Topology.peers env.Algebra.Cost.topology in
  let cost e = Algebra.Cost.of_expr env ~ctx e in
  let objective = Algebra.Cost.weighted in
  let seen = ref [ plan ] in
  let best = ref (plan, cost plan) in
  let frontier = ref [ plan ] in
  for _ = 1 to depth do
    let next = ref [] in
    List.iter
      (fun e ->
        List.iter
          (fun (r : Algebra.Rewrite.rewrite) ->
            if not (List.exists (Expr.equal r.result) !seen) then begin
              seen := r.result :: !seen;
              let c = cost r.result in
              if objective c < objective (snd !best) then best := (r.result, c);
              next := r.result :: !next
            end)
          (Optimizer.rewrites ~peers e))
      !frontier;
    frontier := !next
  done;
  !best

let optimum plan = exhaustive ~env ~ctx:p1 ~depth:2 plan

(* --- fingerprint soundness -------------------------------------- *)

(* Two structurally equal expressions must have equal fingerprints,
   even when their embedded trees carry different node identifiers
   (Expr.equal compares forests canonically). *)
let test_fingerprint_node_id_blind () =
  let forest ns =
    let rng = Workload.Rng.create ~seed:7 in
    [
      Workload.Xml_gen.catalog
        ~gen:(Xml.Node_id.Gen.create ~namespace:ns)
        ~rng ~items:12 ~selectivity:0.25 ();
    ]
  in
  let e ns = Expr.data_at (forest ns) ~at:p1 in
  let a = e "nsA" and b = e "nsB" in
  Alcotest.(check bool) "expressions equal" true (Expr.equal a b);
  Alcotest.(check bool) "fingerprints equal" true
    (Expr.Fingerprint.equal (Expr.fingerprint a) (Expr.fingerprint b))

(* A random plan (the rules-preservation generator's) and every
   one-step rewrite of it.  As in the optimizer, the plan's summaries
   are read before it is rewritten ([Optimizer.fresh_for] fingerprints
   the parent), so a rebuilt node that kept its predecessor's memo
   would carry a stale value. *)
let rewrite_pool seed =
  let rng = Workload.Rng.create ~seed in
  let plan = Test_rules_random.random_plan rng in
  ignore (Expr.fingerprint plan);
  ignore (Algebra.Expr_xml.byte_size plan);
  let n = ref 0 in
  let fresh () =
    incr n;
    Printf.sprintf "_tmp_fp%d" !n
  in
  plan
  :: List.map
       (fun (r : Algebra.Rewrite.rewrite) -> r.result)
       (Algebra.Rewrite.everywhere ~peers:all_peers ~fresh plan)

let pool_prop ~name check =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:30 ~name
       (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
       (fun seed -> check (rewrite_pool seed)))

(* Over random plans and all their rewrites: Expr.equal a b implies
   Fingerprint.equal (the visited table's correctness condition). *)
let fingerprint_prop =
  pool_prop ~name:"Expr.equal implies Fingerprint.equal (plans and rewrites)"
    (fun pool ->
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              (not (Expr.equal a b))
              || Expr.Fingerprint.equal (Expr.fingerprint a)
                   (Expr.fingerprint b))
            pool)
        pool)

(* The fingerprint recomputed from scratch: a whole-expression walk
   that reads no stored summary, the oracle for what each node
   stores. *)
let mix h x = ((h * 0x01000193) lxor x) land max_int
let hash_string (s : string) = Hashtbl.hash s

let hash_location = function
  | Doc.Names.Any -> 0x9e3779b9 land max_int
  | Doc.Names.At p -> mix 0x51ed (Net.Peer_id.hash p)

let hash_forest f =
  List.fold_left
    (fun acc t -> (acc + Xml.Canonical.hash t) land max_int)
    0x1505 f

let hash_node_ref r = hash_string (Doc.Names.Node_ref.to_string r)

let hash_sc (sc : Doc.Sc.t) =
  let h = mix 6 (hash_location sc.provider) in
  let h = mix h (hash_string (Doc.Names.Service_name.to_string sc.service)) in
  let h = List.fold_left (fun h f -> mix h (hash_forest f)) h sc.params in
  List.fold_left
    (fun h r -> mix h (hash_node_ref r))
    h
    (List.sort Doc.Names.Node_ref.compare sc.forward)

let rec hash_query = function
  | Expr.Q_val { q; at } -> mix (mix 20 (Hashtbl.hash q)) (Net.Peer_id.hash at)
  | Expr.Q_service r ->
      mix
        (mix 21 (hash_string (Doc.Names.Service_name.to_string r.name)))
        (hash_location r.at)
  | Expr.Q_send { dest; q } ->
      mix (mix 22 (Net.Peer_id.hash dest)) (hash_query q)

let hash_dest = function
  | Expr.To_peer p -> mix 30 (Net.Peer_id.hash p)
  | Expr.To_nodes targets ->
      List.fold_left (fun h r -> mix h (hash_node_ref r)) 31 targets
  | Expr.To_doc (d, p) ->
      mix
        (mix 32 (hash_string (Doc.Names.Doc_name.to_string d)))
        (Net.Peer_id.hash p)

let rec recomputed e : Expr.Fingerprint.t =
  let node h children : Expr.Fingerprint.t =
    let h, size, depth =
      List.fold_left
        (fun (h, size, depth) c ->
          let (f : Expr.Fingerprint.t) = recomputed c in
          (mix h f.hash, size + f.size, max depth f.depth))
        (h, 1, 0) children
    in
    { hash = h; size; depth = depth + 1 }
  in
  match e with
  | Expr.Data_at { forest; at; _ } ->
      node (mix (mix 1 (Net.Peer_id.hash at)) (hash_forest forest)) []
  | Expr.Doc { doc; _ } ->
      node
        (mix
           (mix 2 (hash_string (Doc.Names.Doc_name.to_string doc.name)))
           (hash_location doc.at))
        []
  | Expr.Sc { sc; at; _ } -> node (mix (hash_sc sc) (Net.Peer_id.hash at)) []
  | Expr.Query_app { query; args; at; _ } ->
      node (mix (mix 3 (hash_query query)) (Net.Peer_id.hash at)) args
  | Expr.Send { dest; expr; _ } -> node (mix 4 (hash_dest dest)) [ expr ]
  | Expr.Eval_at { at; expr; _ } -> node (mix 5 (Net.Peer_id.hash at)) [ expr ]
  | Expr.Shared { name; at; value; body; _ } ->
      node
        (mix
           (mix 7 (hash_string (Doc.Names.Doc_name.to_string name)))
           (Net.Peer_id.hash at))
        [ value; body ]

let rec nodes acc e = List.fold_left nodes (e :: acc) (Expr.subexpressions e)

(* Every node of every plan in the pool stores the fingerprint the
   oracle recomputes and the size its serialization has. *)
let stored_summaries_prop =
  pool_prop
    ~name:"stored fingerprint and size equal recomputed (plans and rewrites)"
    (fun pool ->
      List.for_all
        (fun plan ->
          List.for_all
            (fun e ->
              Expr.Fingerprint.equal (Expr.fingerprint e) (recomputed e)
              && Algebra.Expr_xml.byte_size e
                 = String.length (Algebra.Expr_xml.to_xml_string e))
            (nodes [] plan))
        pool)

(* --- best-first against the oracle --------------------------------- *)

(* The select fixture's optimum lies past a costlier push-selection
   intermediate, so a steepest descent stalls short of it; best-first's
   plateau slack must reach it within eight expansions, like the
   joins' optima. *)
let test_strategies_agree () =
  List.iter
    (fun (name, plan) ->
      let best_first = run (Optimizer.Best_first { max_expansions = 8 }) plan in
      Alcotest.(check (float 1e-9))
        (name ^ ": best-first matches exhaustive at depth 2")
        (Algebra.Cost.weighted (snd (optimum plan)))
        (weight best_first))
    fixtures

(* Deterministic fresh names (derived from the parent plan's
   fingerprint) make the oracle rebuild best-first's best plan, and
   make re-runs reproducible. *)
let test_reproducible_plans () =
  List.iter
    (fun (name, plan) ->
      let a = run (Optimizer.Best_first { max_expansions = 8 }) plan in
      let b = run (Optimizer.Best_first { max_expansions = 8 }) plan in
      Alcotest.(check bool) (name ^ ": re-run returns the same plan") true
        (Expr.equal a.plan b.plan);
      Alcotest.(check (list string))
        (name ^ ": re-run returns the same trace")
        (List.map (fun (s : Optimizer.step) -> s.rule) a.trace)
        (List.map (fun (s : Optimizer.step) -> s.rule) b.trace);
      Alcotest.(check bool)
        (name ^ ": exhaustive rebuilds the same best plan")
        true
        (Expr.equal a.plan (fst (optimum plan))))
    fixtures

(* --- map_children traversal order -------------------------------- *)

(* Regression: map_children must visit Shared's children in
   subexpressions order ([value; body]).  Record fields evaluate
   right-to-left, which used to swap the two slots for a stateful
   function — Rewrite.everywhere then rebuilt rewrites of the value
   into the body slot, silently deleting the query. *)
let test_map_children_order () =
  let value = Expr.doc "cat" ~at:"p2" in
  let body = Expr.query_at sel_query ~at:p1 ~args:[ Expr.doc "shared" ~at:"p2" ] in
  let shared = Expr.shared ~name:"shared" ~at:p2 ~value ~body in
  let seen = ref [] in
  ignore
    (Expr.map_children
       (fun c ->
         seen := c :: !seen;
         c)
       shared);
  Alcotest.(check int) "two children" 2 (List.length !seen);
  (match List.rev !seen with
  | [ first; second ] ->
      Alcotest.(check bool) "value visited first" true (Expr.equal first value);
      Alcotest.(check bool) "body visited second" true (Expr.equal second body)
  | _ -> Alcotest.fail "expected two children");
  (* Positional replacement of child 0 must land in the value slot. *)
  let replacement = Expr.doc "other" ~at:"p3" in
  let j = ref (-1) in
  match
    Expr.map_children
      (fun k ->
        incr j;
        if !j = 0 then replacement else k)
      shared
  with
  | Expr.Shared { value = v; body = b; _ } ->
      Alcotest.(check bool) "value replaced" true (Expr.equal v replacement);
      Alcotest.(check bool) "body intact" true (Expr.equal b body)
  | _ -> Alcotest.fail "still a Shared node"

(* --- the unified planner ----------------------------------------- *)

let test_planner_end_to_end () =
  let plan = List.assoc "select" fixtures in
  let r =
    Planner.plan ~env ~ctx:p1 (Optimizer.Best_first { max_expansions = 8 }) plan
  in
  Alcotest.(check bool) "improves on the naive plan" true
    (Algebra.Cost.weighted r.cost
    < Algebra.Cost.weighted r.search.Optimizer.initial_cost);
  Alcotest.(check bool) "counts structural comparisons" true (r.equal_calls > 0);
  Alcotest.(check string) "names its strategy" "best-first(expansions=8)"
    r.strategy;
  let json = Planner.explain_json r in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
    at 0
  in
  List.iter
    (fun key ->
      Alcotest.(check bool)
        (Printf.sprintf "explain JSON mentions %S" key)
        true
        (contains (Printf.sprintf "%S" key) json))
    [ "strategy"; "initial_cost"; "final_cost"; "trace"; "queries_optimized" ]

let test_planner_execution_correct () =
  (* The planner's chosen plan must produce the naive plan's answers
     on a live system, with less traffic. *)
  let build () =
    let sys = Runtime.System.create topo in
    let rng = Workload.Rng.create ~seed:21 in
    let g = Runtime.System.gen_of sys p2 in
    Runtime.System.add_document sys p2 ~name:"cat"
      (Workload.Xml_gen.catalog ~gen:g ~rng ~items:120 ~selectivity:0.1 ());
    sys
  in
  let naive = List.assoc "select" fixtures in
  let reference = Runtime.Exec.run_to_quiescence (build ()) ~ctx:p1 naive in
  let planned, outcome =
    Runtime.Exec.run_optimized (build ()) ~ctx:p1
      ~strategy:(Optimizer.Best_first { max_expansions = 8 })
      naive
  in
  Alcotest.(check bool) "same answers" true
    (Xml.Canonical.equal_forest reference.results outcome.results);
  Alcotest.(check bool) "fewer bytes on the wire" true
    (outcome.stats.bytes < reference.stats.bytes);
  Alcotest.(check bool) "planner reports an improvement" true
    (Algebra.Cost.weighted planned.Planner.cost
    < Algebra.Cost.weighted planned.Planner.search.Optimizer.initial_cost)

(* --- the per-call oracle memo ------------------------------------ *)

let cost_testable = Alcotest.testable Algebra.Cost.pp ( = )
let best_first_8 = Optimizer.Best_first { max_expansions = 8 }

(* A live system holding "cat" on p2 and p3, as the fixtures read it. *)
let catalog_system () =
  let sys = Runtime.System.create topo in
  List.iteri
    (fun i p ->
      let rng = Workload.Rng.create ~seed:(31 + i) in
      Runtime.System.add_document sys p ~name:"cat"
        (Workload.Xml_gen.catalog
           ~gen:(Runtime.System.gen_of sys p)
           ~rng ~items:40 ~selectivity:0.2 ()))
    [ p2; p3 ];
  sys

(* The site-local pass rewrites this query (double negation), so the
   planner re-prices the searched plan after the search. *)
let simplified =
  Expr.query_at
    (query
       {|query(1) for $i in $0//item where (not (not attr($i, "category") = "wanted")) return <hit>{$i}</hit>|})
    ~at:p1
    ~args:[ Expr.doc "cat" ~at:"p2" ]

(* One plan prices hundreds of candidates over the same documents: it
   reads each one's size and statistics once, re-pricing included, and
   returns what it would return without the memo. *)
let test_plan_reads_each_document_once () =
  let live = Runtime.System.cost_env (catalog_system ()) in
  let rewritten = Planner.plan ~env:live ~ctx:p1 best_first_8 simplified in
  Alcotest.(check bool) "the site-local pass rewrites a query" true
    (rewritten.queries_optimized > 0);
  List.iter
    (fun (name, plan) ->
      let reads = Hashtbl.create 8 in
      let counted oracle f r =
        let k = (oracle, Doc.Names.Doc_ref.to_string r) in
        Hashtbl.replace reads k
          (1 + Option.value ~default:0 (Hashtbl.find_opt reads k));
        f r
      in
      let env =
        {
          live with
          Algebra.Cost.doc_bytes = counted "doc_bytes" live.Algebra.Cost.doc_bytes;
          doc_stats = counted "doc_stats" live.Algebra.Cost.doc_stats;
        }
      in
      let r = Planner.plan ~env ~ctx:p1 best_first_8 plan in
      Alcotest.(check bool) (name ^ ": documents were read") true
        (Hashtbl.length reads > 0);
      Alcotest.(check int)
        (name ^ ": each document read at most once per oracle") 1
        (Hashtbl.fold (fun _ n acc -> max n acc) reads 0);
      let unwrapped = Planner.plan ~env:live ~ctx:p1 best_first_8 plan in
      Alcotest.(check bool) (name ^ ": same plan as unwrapped") true
        (Expr.equal r.plan unwrapped.plan);
      Alcotest.check cost_testable
        (name ^ ": cost is the plan's price on the unwrapped env")
        (Algebra.Cost.of_expr live ~ctx:p1 r.plan)
        r.cost)
    (("simplified", simplified) :: fixtures)

(* The memo lives for one call: the same live env, planned with again
   after an append, prices the documents at their new size. *)
let test_plan_memo_lives_one_call () =
  let sys = catalog_system () in
  let env = Runtime.System.cost_env sys in
  let plan = List.assoc "select" fixtures in
  let first = Planner.plan ~env ~ctx:p1 best_first_8 plan in
  let store = (Runtime.System.peer sys p2).Runtime.Peer.store in
  let name = Doc.Names.Doc_name.of_string "cat" in
  let root = Doc.Document.root (Option.get (Doc.Store.peek store name)) in
  let g = Runtime.System.gen_of sys p2 in
  ignore
    (Doc.Store.insert_under store name
       ~node:(Option.get (Xml.Tree.id root))
       [ elt g "item" [ txt (String.make 4096 'x') ] ]);
  let second = Planner.plan ~env ~ctx:p1 best_first_8 plan in
  Alcotest.check cost_testable "the second plan starts at the new size"
    (Algebra.Cost.of_expr env ~ctx:p1 plan)
    second.search.Optimizer.initial_cost;
  Alcotest.check cost_testable "and is priced at it"
    (Algebra.Cost.of_expr env ~ctx:p1 second.plan)
    second.cost;
  Alcotest.(check bool) "the append moved the estimate" true
    (second.search.Optimizer.initial_cost <> first.search.Optimizer.initial_cost)

(* --- golden fingerprints ----------------------------------------- *)

(* Fingerprints name rule (10)/(13)'s auxiliary documents and key the
   query cache, so how they are computed must not move them.  Recorded
   values for E15's three fixtures (bench/paper.ml) and for perfbench's
   xmark_join: its three request expressions and the plans the planner
   chooses for them over the live system. *)
let e15_fixtures () =
  let q = Workload.Xml_gen.selection_query () in
  let join =
    query
      {|query(2) for $x in $0//item, $y in $1//item
        where attr($x, "category") = "wanted" and attr($y, "category") = "wanted"
        return <pair/>|}
  in
  let fetch = Expr.send_to_peer p1 (Expr.doc "cat" ~at:"p2") in
  [
    Expr.query_at q ~at:p1 ~args:[ Expr.doc "cat" ~at:"p2" ];
    Expr.query_at join ~at:p1 ~args:[ fetch; fetch ];
    Expr.query_at join ~at:p1
      ~args:[ Expr.doc "cat" ~at:"p2"; Expr.doc "cat" ~at:"p3" ];
  ]

(* perfbench's xmark_join system (perfbench/workloads.ml), rebuilt. *)
let xmark_hub = peer "hub"

let xmark_join_plans () =
  let join_query =
    query
      {|query(2) for $a in $0//auction, $i in $1//item, $n in $i/name, $c in $a/current
      where attr($a, "item") = attr($i, "id")
      return <sale>{$n}<price>{text($c)}</price></sale>|}
  in
  let regions = List.map peer Workload.Xmark.regions in
  let sys =
    Runtime.System.create ~transport:Runtime.System.Reliable
      ~wire:Runtime.System.Binary
      (Net.Topology.star ~hub:xmark_hub
         ~spoke_link:
           (Net.Link.make ~latency_ms:8.0 ~bandwidth_bytes_per_ms:120.0)
         (xmark_hub :: regions))
  in
  let gen = Runtime.System.gen_of sys xmark_hub in
  let site =
    Workload.Xmark.site
      ~scale:
        {
          Workload.Xmark.default_scale with
          people = 200;
          items_per_region = 400;
          auctions = 600;
          description_bytes = 960;
        }
      ~gen ~rng:(Workload.Rng.create ~seed:1) ()
  in
  let part p path =
    Xml.Tree.copy ~gen:(Runtime.System.gen_of sys p)
      (List.hd (Xml.Path.select (Xml.Path.of_string path) site))
  in
  Runtime.System.add_document sys xmark_hub ~name:"auctions"
    (part xmark_hub "/auctions");
  List.iter2
    (fun p region ->
      Runtime.System.add_document sys p ~name:"items"
        (part p ("/regions/" ^ region)))
    regions Workload.Xmark.regions;
  List.map
    (fun region ->
      let expr =
        Expr.query_at join_query ~at:xmark_hub
          ~args:
            [
              Expr.doc "auctions" ~at:"hub";
              Expr.doc "items" ~at:(Net.Peer_id.to_string region);
            ]
      in
      ( expr,
        Planner.plan ~env:(Runtime.System.cost_env sys) ~ctx:xmark_hub
          (Optimizer.Best_first { max_expansions = 32 })
          expr ))
    regions

let test_golden_fingerprints () =
  let check msg (hash, size, depth) e =
    let (f : Expr.Fingerprint.t) = Expr.fingerprint e in
    Alcotest.(check (triple int int int)) msg (hash, size, depth)
      (f.hash, f.size, f.depth)
  in
  List.iter2 (check "E15 fixture")
    [
      (0x3d58c2f923db1926, 2, 2);
      (0x24d795f2d8c50b05, 5, 3);
      (0x34dcf7fcfccdcfa6, 3, 2);
    ]
    (e15_fixtures ());
  List.iter2
    (fun (request, plan) (expr, (r : Planner.result)) ->
      check "xmark_join request" request expr;
      check "xmark_join plan" plan r.plan;
      Alcotest.(check int) "xmark_join explored" 474 r.search.explored)
    [
      ((0x2fa9799a2b1b99d2, 3, 2), (0xa02263af29986d8, 6, 4));
      ((0x2fa9799a057d5d26, 3, 2), (0x304f9896de29201c, 6, 4));
      ((0x2fa9799a20910d33, 3, 2), (0x39d909da3600d55f, 6, 4));
    ]
    (xmark_join_plans ())

let suite =
  [
    ("fingerprints are node-id blind", `Quick, test_fingerprint_node_id_blind);
    fingerprint_prop;
    stored_summaries_prop;
    ( "fingerprints match the recorded values",
      `Quick,
      test_golden_fingerprints );
    ("strategies agree on the fixtures", `Quick, test_strategies_agree);
    ("plans are reproducible across runs and strategies", `Quick,
     test_reproducible_plans);
    ("map_children visits Shared children in order", `Quick,
     test_map_children_order);
    ("planner end to end", `Quick, test_planner_end_to_end);
    ("planned execution stays correct", `Quick, test_planner_execution_correct);
    ("one plan reads each document once", `Quick,
     test_plan_reads_each_document_once);
    ("the planner memo lives for one call", `Quick,
     test_plan_memo_lives_one_call);
  ]
