(* The paper's claims, E1-E16 (see DESIGN.md §4 and EXPERIMENTS.md).
   The paper publishes no numeric tables, so each experiment
   regenerates the *claim* behind a rule of Section 3.3 with measured
   simulator statistics: who wins, by what factor, and where the
   crossovers sit.  Each is one fixed-size registry entry; where a run
   has a reference answer, a "same" column records the agreement and a
   gate requires it on every row. *)

open Axml
open Runner
module Expr = Algebra.Expr
module Names = Doc.Names
module Rewrite = Algebra.Rewrite
module System = Runtime.System

let p1 = Net.Peer_id.of_string "p1"
let p2 = Net.Peer_id.of_string "p2"
let p3 = Net.Peer_id.of_string "p3"
let default_link = Net.Link.make ~latency_ms:10.0 ~bandwidth_bytes_per_ms:100.0

let mesh_system ?(peers = [ p1; p2; p3 ]) ?(link = default_link) () =
  Runtime.System.create (Net.Topology.full_mesh ~link peers)

(* A system with a synthetic catalog of [items] at p2. *)
let catalog_system ~items ~selectivity ?(payload_bytes = 64) ~seed () =
  let sys = mesh_system () in
  let rng = Workload.Rng.create ~seed in
  let g = Runtime.System.gen_of sys p2 in
  let catalog =
    Workload.Xml_gen.catalog ~gen:g ~rng ~items ~selectivity ~payload_bytes ()
  in
  Runtime.System.add_document sys p2 ~name:"cat" catalog;
  (sys, Xml.Tree.byte_size catalog)

let run_plan sys plan = Runtime.Exec.run_to_quiescence sys ~ctx:p1 plan
let same_forest a b = ("same", flag (Xml.Canonical.equal_forest a b))
let same_gate = gate "every row reproduces the reference answer" (every "same")

(* a / b as a ratio cell, b clamped to 1. *)
let times a b = ratio (float_of_int a /. float_of_int (max 1 b))

let claim id title ~about ?(gates = [ same_gate ]) run =
  E { id; title; about; smoke = None; full = (); arms = []; run = (fun () _ -> run ()); gates }

(* --- E1: Example 1, pushing selections -------------------------- *)

let e1 =
  claim "E1" "Example 1: pushing selections (rule 10+11)"
    ~about:"query: names of matching items; naive ships the catalog, pushed ships hits"
  @@ fun () ->
  let q = Workload.Xml_gen.selection_query () in
  table
    (List.concat_map
       (fun items ->
         List.map
           (fun sel ->
             let build () = catalog_system ~items ~selectivity:sel ~seed:42 () in
             let naive = Expr.query_at q ~at:p1 ~args:[ Expr.doc "cat" ~at:"p2" ] in
             let sys, cat_bytes = build () in
             let out_n = run_plan sys naive in
             let pushed =
               match Rewrite.r11_push_selection naive with
               | [ r ] -> r.result
               | _ -> assert false
             in
             let sys2, _ = build () in
             let out_p = run_plan sys2 pushed in
             [
               ("items", int items); ("sel", pct sel); ("doc", bytes cat_bytes);
               ("naive B", bytes out_n.stats.bytes);
               ("pushed B", bytes out_p.stats.bytes);
               ("B ratio", times out_n.stats.bytes out_p.stats.bytes);
               ("naive ms", ms out_n.elapsed_ms); ("pushed ms", ms out_p.elapsed_ms);
               same_forest out_n.results out_p.results;
             ])
           [ 0.01; 0.1; 0.5 ])
       [ 100; 1000; 5000 ]);
  Printf.printf
    "\nshape: pushing wins everywhere; the factor grows as selectivity drops\n"

(* --- E2: rule 10, delegation crossover -------------------------- *)

let e2 =
  claim "E2" "Rule 10: query delegation vs local evaluation"
    ~about:
      "data at p1, consumer at p2: evaluate locally then ship results, or\n\
       delegate (ship data+query to p2, evaluate there)?  The winner flips\n\
       with output/input ratio (selectivity)."
  @@ fun () ->
  let items = 1500 in
  table
    (List.map
       (fun sel ->
         let build () =
           let sys = mesh_system () in
           let rng = Workload.Rng.create ~seed:7 in
           let g = Runtime.System.gen_of sys p1 in
           Runtime.System.add_document sys p1 ~name:"cat"
             (Workload.Xml_gen.catalog ~gen:g ~rng ~items ~selectivity:sel ());
           sys
         in
         (* An output-expanding query: each matching item appears twice
            in the result, so at high selectivity the output outweighs
            the input and shipping raw data beats shipping results. *)
         let q =
           Query.Parser.parse_exn
             {|query(1) for $i in $0//item where attr($i, "category") = "wanted"
              return <hit>{$i}{$i}</hit>|}
         in
         (* Local: evaluate at p1, ship only results to p2 (installed as
            a document there). *)
         let local =
           Expr.send_as_doc ~name:"res" ~at:p2
             (Expr.query_at q ~at:p1 ~args:[ Expr.doc "cat" ~at:"p1" ])
         in
         (* Delegated: ship query and data to p2, evaluate and install
            there. *)
         let delegated =
           Expr.send_as_doc ~name:"res" ~at:p2
             (Expr.query_app
                (Expr.Q_send { dest = p2; q = Expr.Q_val { q; at = p1 } })
                ~args:[ Expr.send_to_peer p2 (Expr.doc "cat" ~at:"p1") ]
                ~at:p2)
         in
         let sys_l = build () in
         let out_l = run_plan sys_l local in
         let sys_d = build () in
         let out_d = run_plan sys_d delegated in
         let doc_fp sys =
           match System.find_document sys p2 "res" with
           | Some d -> Doc.Equivalence.fingerprint (Doc.Document.root d)
           | None -> "missing"
         in
         [
           ("sel", pct sel); ("eval-local B", bytes out_l.stats.bytes);
           ("delegate B", bytes out_d.stats.bytes);
           ( "winner",
             str (if out_l.stats.bytes <= out_d.stats.bytes then "local" else "delegate") );
           ("same", flag (doc_fp sys_l = doc_fp sys_d));
         ])
       [ 0.02; 0.1; 0.3; 0.6; 0.9 ]);
  Printf.printf
    "\nshape: local-then-ship wins while results are small; once the\n\
     (expanding) output outweighs the input, delegation wins — the\n\
     crossover the rule exists for\n"

(* --- E3: rule 11, distributing a composed query ------------------ *)

let e3 =
  claim "E3" "Rule 11: decomposing a composition across peers" ~gates:[]
    ~about:
      "q = join(hits@p2, hits@p3): centralized (fetch both catalogs to p1)\n\
       vs distributed (sub-queries pushed to the data, rule 11 + rule 10)"
  @@ fun () ->
  let sub_query peer_doc =
    ignore peer_doc;
    Query.Parser.parse_exn
      {|query(1) for $x in $0//item where attr($x, "category") = "wanted" return <hit>{$x}</hit>|}
  in
  let head =
    Query.Parser.parse_exn
      "query(2) for $a in $0, $b in $1 return <pair>{$a}{$b}</pair>"
  in
  table
    (List.map
       (fun items ->
         let build () =
           let sys = mesh_system () in
           List.iteri
             (fun i p ->
               let rng = Workload.Rng.create ~seed:(100 + i) in
               let g = Runtime.System.gen_of sys p in
               Runtime.System.add_document sys p ~name:"cat"
                 (Workload.Xml_gen.catalog ~gen:g ~rng ~items ~selectivity:0.05 ()))
             [ p2; p3 ];
           sys
         in
         (* Centralized: fetch both documents and run everything at p1. *)
         let centralized =
           Expr.query_at
             (Query.Parser.parse_exn
                {|compose { query(2) for $a in $0, $b in $1 return <pair>{$a}{$b}</pair> }
                 ({ query(2) for $x in $0//item where attr($x, "category") = "wanted" return <hit>{$x}</hit> };
                  { query(2) for $x in $1//item where attr($x, "category") = "wanted" return <hit>{$x}</hit> })|})
             ~at:p1
             ~args:[ Expr.doc "cat" ~at:"p2"; Expr.doc "cat" ~at:"p3" ]
         in
         (* Distributed: each selection runs at its data peer; only hits
            travel (rule 11 unfold + rule 10 per sub-query). *)
         let pushed_sub peer =
           Expr.query_app
             (Expr.Q_send
                { dest = peer; q = Expr.Q_val { q = sub_query peer; at = p1 } })
             ~args:[ Expr.doc "cat" ~at:(Net.Peer_id.to_string peer) ]
             ~at:peer
         in
         let distributed =
           Expr.query_at head ~at:p1 ~args:[ pushed_sub p2; pushed_sub p3 ]
         in
         let out_c = run_plan (build ()) centralized in
         let out_d = run_plan (build ()) distributed in
         [
           ("items/peer", int items); ("central B", bytes out_c.stats.bytes);
           ("distrib B", bytes out_d.stats.bytes);
           ("ratio", times out_c.stats.bytes out_d.stats.bytes);
           ("central ms", ms out_c.elapsed_ms); ("distrib ms", ms out_d.elapsed_ms);
         ])
       [ 200; 1000; 4000 ]);
  Printf.printf "\nshape: distribution wins and scales with catalog size\n"

(* --- E4: rule 12, intermediary stops ----------------------------- *)

let e4 =
  claim "E4" "Rule 12: when an intermediary stop pays off" ~gates:[]
    ~about:
      "moving 1 catalog p2 -> p1 with a relay p3; the direct p2->p1 link is\n\
       slow, relay links are fast.  Sweeping the direct link's bandwidth."
  @@ fun () ->
  let items = 1200 in
  table
    (List.map
       (fun direct_bw ->
         let slow = Net.Link.make ~latency_ms:40.0 ~bandwidth_bytes_per_ms:direct_bw in
         let fast = Net.Link.make ~latency_ms:5.0 ~bandwidth_bytes_per_ms:500.0 in
         let topo =
           Net.Topology.of_links ~default:slow
             [ (p2, p3, fast); (p3, p1, fast); (p1, p3, fast); (p3, p2, fast) ]
             [ p1; p2; p3 ]
         in
         let build () =
           let sys = Runtime.System.create topo in
           let rng = Workload.Rng.create ~seed:4 in
           let g = Runtime.System.gen_of sys p2 in
           Runtime.System.add_document sys p2 ~name:"cat"
             (Workload.Xml_gen.catalog ~gen:g ~rng ~items ~selectivity:0.1 ());
           sys
         in
         let direct = Expr.send_to_peer p1 (Expr.doc "cat" ~at:"p2") in
         let relayed =
           Expr.send_to_peer p1
             (Expr.send_to_peer p3 (Expr.doc "cat" ~at:"p2"))
         in
         let out_d = run_plan (build ()) direct in
         let out_r = run_plan (build ()) relayed in
         [
           ("direct bw", str (Printf.sprintf "%.0f B/ms" direct_bw));
           ("direct ms", ms out_d.elapsed_ms); ("relay ms", ms out_r.elapsed_ms);
           ("direct B", bytes out_d.stats.bytes); ("relay B", bytes out_r.stats.bytes);
           ( "faster",
             str (if out_d.elapsed_ms <= out_r.elapsed_ms then "direct" else "relay") );
         ])
       [ 500.0; 100.0; 50.0; 20.0; 5.0 ]);
  Printf.printf
    "\nshape: the relay doubles bytes but wins on time once the direct link\n\
     is slow enough — the paper's remark that rule 12 is not one-way\n"

(* --- E5: rule 13, transfer sharing ------------------------------- *)

let e5 =
  claim "E5" "Rule 13: sharing a repeated transfer via materialization"
    ~about:
      "a self-join needs the remote catalog twice; sharing materializes it\n\
       once (bytes halve); the sequencing the paper warns about stays off\n\
       the critical path here because both copies share one source link"
  @@ fun () ->
  let join =
    Query.Parser.parse_exn
      {|query(2) for $x in $0//item, $y in $1//item
        where attr($x, "category") = "wanted" and attr($y, "category") = "wanted"
        return <pair/>|}
  in
  table
    (List.map
       (fun items ->
         let build () = catalog_system ~items ~selectivity:0.05 ~seed:5 () in
         let fetch = Expr.send_to_peer p1 (Expr.doc "cat" ~at:"p2") in
         let twice = Expr.query_at join ~at:p1 ~args:[ fetch; fetch ] in
         let shared =
           match Rewrite.r13_share ~fresh:(fun () -> "_tmp_e5") twice with
           | r :: _ -> r.result
           | [] -> assert false
         in
         let sys1, _ = build () in
         let out_t = run_plan sys1 twice in
         let sys2, _ = build () in
         let out_s = run_plan sys2 shared in
         [
           ("items", int items); ("unshared B", bytes out_t.stats.bytes);
           ("shared B", bytes out_s.stats.bytes);
           ("ratio", times out_t.stats.bytes out_s.stats.bytes);
           ("unshared ms", ms out_t.elapsed_ms); ("shared ms", ms out_s.elapsed_ms);
           same_forest out_t.results out_s.results;
         ])
       [ 200; 1000; 3000 ]);
  Printf.printf "\nshape: bytes halve at every size; latency gap stays small\n"

(* --- E6: rule 15, relocating sc evaluation ----------------------- *)

let e6 =
  claim "E6" "Rule 15: relocating sc-rooted trees (fan-out sweep)" ~gates:[]
    ~about:
      "an sc with k forward targets; activating it from the caller vs\n\
       relocating the activation to the provider (params skip one hop)"
  @@ fun () ->
  let items = 600 in
  let peers =
    p1 :: p2
    :: List.init 16 (fun i -> Net.Peer_id.of_string (Printf.sprintf "t%d" i))
  in
  table
    (List.map
       (fun k ->
         let build () =
           let sys =
             Runtime.System.create (Net.Topology.full_mesh ~link:default_link peers)
           in
           let rng = Workload.Rng.create ~seed:6 in
           let g2 = Runtime.System.gen_of sys p2 in
           Runtime.System.add_service sys p2
             (Doc.Service.declarative ~name:"find"
                (Workload.Xml_gen.selection_query ()));
           let param =
             Workload.Xml_gen.catalog ~gen:g2 ~rng ~items ~selectivity:0.05 ()
           in
           (* k inbox documents on k target peers *)
           let targets =
             List.init k (fun i ->
                 let tp = Net.Peer_id.of_string (Printf.sprintf "t%d" i) in
                 let g = Runtime.System.gen_of sys tp in
                 let inbox = Xml.Tree.element_of_string ~gen:g "inbox" [] in
                 Runtime.System.add_document sys tp ~name:"inbox" inbox;
                 Names.Node_ref.make ~node:(Option.get (Xml.Tree.id inbox)) ~peer:tp)
           in
           let sc =
             Doc.Sc.make ~forward:targets ~provider:(Names.At p2) ~service:"find"
               [ [ param ] ]
           in
           (sys, sc)
         in
         let sys1, sc1 = build () in
         let caller = run_plan sys1 (Expr.sc sc1 ~at:p1) in
         let sys2, sc2 = build () in
         let relocated = Expr.eval_at p2 (Expr.sc sc2 ~at:p2) in
         let reloc = run_plan sys2 relocated in
         [
           ("fan-out k", int k); ("at-caller B", bytes caller.stats.bytes);
           ("relocated B", bytes reloc.stats.bytes);
           ("caller ms", ms caller.elapsed_ms); ("reloc ms", ms reloc.elapsed_ms);
         ])
       [ 1; 2; 4; 8; 16 ]);
  Printf.printf
    "\nshape: the rule's claim is location independence — relocating the\n\
     activation changes neither results nor (within <1%% plan-shipping\n\
     overhead) cost; the response fan-out dominates and is identical\n"

(* --- E7: rule 16, pushing queries over service calls ------------- *)

let e7 =
  claim "E7" "Rule 16: pushing a query over a service call"
    ~about:
      "q extracts names from a service's response; the provider's service\n\
       returns matching items.  Sweeping the match rate (= response size):\n\
       pushed ships q instead of the response, but re-ships parameters."
  @@ fun () ->
  let probe =
    Query.Parser.parse_exn
      {|query(1) for $h in $0, $n in $h//name return <just_name>{$n}</just_name>|}
  in
  let items = 800 in
  table
    (List.map
       (fun match_rate ->
         let build () =
           let sys = mesh_system () in
           let rng = Workload.Rng.create ~seed:77 in
           let g = Runtime.System.gen_of sys p1 in
           let param =
             Workload.Xml_gen.catalog ~gen:g ~rng ~items ~selectivity:match_rate
               ~payload_bytes:96 ()
           in
           Runtime.System.add_service sys p2
             (Doc.Service.declarative ~name:"wanted"
                (Workload.Xml_gen.selection_query_with_payload ()));
           (sys, param)
         in
         let plan param =
           Expr.query_at probe ~at:p1
             ~args:
               [
                 Expr.sc
                   (Doc.Sc.make ~provider:(Names.At p2) ~service:"wanted"
                      [ [ param ] ])
                   ~at:p1;
               ]
         in
         let sys1, param1 = build () in
         let naive = run_plan sys1 (plan param1) in
         let sys2, param2 = build () in
         let pushed_plan =
           match Rewrite.r16_push_query_over_sc (plan param2) with
           | [ r ] -> r.result
           | _ -> assert false
         in
         let pushed = run_plan sys2 pushed_plan in
         [
           ("match rate", pct match_rate); ("naive B", bytes naive.stats.bytes);
           ("pushed B", bytes pushed.stats.bytes);
           ( "winner",
             str (if naive.stats.bytes <= pushed.stats.bytes then "as-is" else "push") );
           same_forest naive.results pushed.results;
         ])
       [ 0.02; 0.1; 0.3; 0.6; 0.9 ]);
  Printf.printf
    "\nshape: parameters ship once either way; pushing replaces the response\n\
     transfer with the (tiny) final result, so its margin grows with the\n\
     service's match rate\n"

(* --- E8: generic services, pick policies ------------------------- *)

let e8 =
  claim "E8" "Definition 9: pick policies for generic resources" ~gates:[]
    ~about:
      "one catalog replicated on 4 mirrors with heterogeneous links from the\n\
       client; 6 consecutive generic queries per policy"
  @@ fun () ->
  let mirrors =
    List.init 4 (fun i -> Net.Peer_id.of_string (Printf.sprintf "m%d" i))
  in
  let client = p1 in
  let build () =
    (* Mirror m0 (the one reference order picks first) sits behind the
       worst link; quality improves with the index. *)
    let links =
      List.concat
        (List.mapi
           (fun i m ->
             let rank = float_of_int (List.length mirrors - i) in
             let l =
               Net.Link.make ~latency_ms:(5.0 *. rank)
                 ~bandwidth_bytes_per_ms:(500.0 /. rank)
             in
             [ (client, m, l); (m, client, l) ])
           mirrors)
    in
    let topo =
      Net.Topology.of_links ~default:default_link links (client :: mirrors)
    in
    let sys = Runtime.System.create topo in
    List.iteri
      (fun i m ->
        let rng = Workload.Rng.create ~seed:(800 + i) in
        let g = Runtime.System.gen_of sys m in
        Runtime.System.add_document sys m ~name:"cat"
          (Workload.Xml_gen.catalog ~gen:g ~rng ~items:700 ~selectivity:0.05 ());
        Runtime.System.register_doc_class sys ~class_name:"mirror"
          (Names.Doc_ref.at_peer "cat" ~peer:(Net.Peer_id.to_string m)))
      mirrors;
    sys
  in
  let q = Workload.Xml_gen.selection_query () in
  let plan = Expr.query_at q ~at:client ~args:[ Expr.doc_any "mirror" ] in
  table
    (List.map
       (fun (name, policy_of) ->
         let sys = build () in
         (System.peer sys client).Runtime.Peer.policy <- policy_of sys;
         let total_bytes = ref 0 and total_ms = ref 0.0 in
         for _ = 1 to 6 do
           let out = run_plan sys plan in
           total_bytes := !total_bytes + out.stats.bytes;
           total_ms := !total_ms +. out.elapsed_ms
         done;
         [
           ("policy", str name); ("bytes (6 runs)", bytes !total_bytes);
           ("total ms", ms !total_ms);
         ])
       [
         ("First", fun _ -> Doc.Generic.First);
         ("Random", fun _ -> Doc.Generic.Random 17);
         ( "Nearest",
           fun sys ->
             Doc.Generic.Nearest
               {
                 from = client;
                 topology = Net.Sim.topology (System.sim sys);
                 probe_bytes = 16_384;
               } );
         ( "LeastLoaded",
           fun sys ->
             Doc.Generic.Least_loaded
               (fun p -> Net.Sim.busy_until (System.sim sys) p) );
       ]);
  Printf.printf "\nshape: Nearest beats First/Random on completion time\n"

(* --- E9: continuous evaluation ----------------------------------- *)

let e9 =
  claim "E9" "Continuous queries: incremental vs re-evaluation"
    ~about:
      "a stream of n catalog fragments into a continuous selection; CPU time\n\
       of processing every arrival incrementally vs re-running from scratch"
  @@ fun () ->
  let q = Workload.Xml_gen.selection_query () in
  let fragment seed =
    let rng = Workload.Rng.create ~seed in
    let g = Xml.Node_id.Gen.create ~namespace:(Printf.sprintf "e9-%d" seed) in
    Workload.Xml_gen.catalog ~gen:g ~rng ~items:30 ~selectivity:0.2 ()
  in
  table
    (List.map
       (fun n ->
         let stream = List.init n fragment in
         let g = Xml.Node_id.Gen.create ~namespace:"e9" in
         let deltas, t_inc =
           cpu_ms (fun () ->
               let state = Query.Incremental.create q in
               List.concat_map
                 (fun t -> Query.Incremental.push ~gen:g state ~input:0 t)
                 stream)
         in
         (* Re-evaluation per arrival. *)
         let full, t_re =
           cpu_ms (fun () ->
               let full = ref [] in
               let seen = ref [] in
               List.iter
                 (fun t ->
                   seen := !seen @ [ t ];
                   full := Query.Eval.eval ~gen:g q [ !seen ])
                 stream;
               !full)
         in
         [
           ("stream len", int n); ("incremental ms", ms t_inc);
           ("re-eval ms", ms t_re); ("speedup", ratio (t_re /. max 1e-6 t_inc));
           same_forest deltas full;
         ])
       [ 16; 64; 128 ]);
  Printf.printf "\nshape: re-evaluation grows quadratically, incremental linearly\n"

(* --- E10: optimizer end-to-end ----------------------------------- *)

let e10 =
  claim "E10" "Optimizer: naive vs best-first plan"
    ~about:
      "the E1 plan under the cost model; estimated cost, plans explored, and\n\
       the simulator-measured bytes of the naive and the searched plan"
  @@ fun () ->
  let q = Workload.Xml_gen.selection_query () in
  let naive = Expr.query_at q ~at:p1 ~args:[ Expr.doc "cat" ~at:"p2" ] in
  let build () = catalog_system ~items:2000 ~selectivity:0.05 ~seed:10 () in
  let _, cat_bytes = build () in
  let env =
    Algebra.Cost.default_env
      ~doc_bytes:(fun _ -> cat_bytes)
      (Net.Topology.full_mesh ~link:default_link [ p1; p2; p3 ])
  in
  let strategies =
    [
      ("naive (no search)", None);
      ("best-first(24)", Some (Algebra.Optimizer.Best_first { max_expansions = 24 }));
    ]
  in
  let reference = ref [] in
  table
    (List.map
       (fun (name, strategy) ->
         let plan, explored, est =
           match strategy with
           | None -> (naive, 1, Algebra.Cost.of_expr env ~ctx:p1 naive)
           | Some s ->
               let r = Algebra.Optimizer.optimize ~env ~ctx:p1 s naive in
               (r.plan, r.explored, r.cost)
         in
         let out, wall =
           cpu_ms (fun () ->
               let sys, _ = build () in
               run_plan sys plan)
         in
         if !reference = [] then reference := out.results;
         [
           ("strategy", str name); ("plans", int explored);
           ("est B", bytes est.Algebra.Cost.bytes);
           ("measured B", bytes out.stats.bytes); ("sim ms", ms out.elapsed_ms);
           ("search+run wall ms", num "%.0f" wall);
           same_forest !reference out.results;
         ])
       strategies);
  Printf.printf
    "\nshape: the searched plan ships a fraction of the naive bytes for the\n\
     same answer\n"

(* --- E11: lazy vs eager call activation -------------------------- *)

let e11 =
  claim "E11" "Lazy evaluation: activating only query-relevant calls"
    ~about:
      "a portal document with one call per section; the query inspects one\n\
       section.  Eager activation fires everything; lazy activation uses the\n\
       path-relevance analysis (Query.Relevance).  Sweeping section count."
  @@ fun () ->
  let build sections =
    let sys = mesh_system () in
    (* One service per section at p2; section k's response weighs
       ~2^k KB so that skipping matters. *)
    List.iter
      (fun k ->
        let bytes = 1024 * (1 + k) in
        System.add_service sys p2
          (Doc.Service.extern
             ~name:(Printf.sprintf "feed%d" k)
             ~signature:(Axml_schema.Signature.untyped ~arity:0)
             (fun _ ->
               let g =
                 Xml.Node_id.Gen.create ~namespace:(Printf.sprintf "f%d" k)
               in
               [
                 Xml.Tree.element_of_string ~gen:g "item"
                   [ Xml.Tree.text (String.make bytes 'x') ];
               ])))
      (List.init sections Fun.id);
    let section_xml k =
      Printf.sprintf
        "<section%d><sc><peer>p2</peer><service>feed%d</service></sc></section%d>"
        k k k
    in
    System.load_document sys p1 ~name:"portal"
      ~xml:
        (Printf.sprintf "<portal>%s</portal>"
           (String.concat ""
              (List.map section_xml (List.init sections Fun.id))));
    sys
  in
  let q =
    Query.Parser.parse_exn
      "query(1) for $i in $0/section0//item return <got/>"
  in
  table
    (List.map
       (fun sections ->
         let eager =
           Axml_peer.Lazy_eval.eval_over_document (build sections) ~ctx:p1
             ~mode:Axml_peer.Lazy_eval.Eager ~query:q ~doc:"portal"
         in
         let lazy_ =
           Axml_peer.Lazy_eval.eval_over_document (build sections) ~ctx:p1
             ~mode:Axml_peer.Lazy_eval.Lazy ~query:q ~doc:"portal"
         in
         [
           ("sections", int sections);
           ("eager calls", str (Printf.sprintf "%d/%d" eager.activated sections));
           ("lazy calls", str (Printf.sprintf "%d/%d" lazy_.activated sections));
           ("eager B", bytes eager.stats.bytes); ("lazy B", bytes lazy_.stats.bytes);
           ("ratio", times eager.stats.bytes lazy_.stats.bytes);
           same_forest eager.results lazy_.results;
         ])
       [ 2; 4; 8; 16 ]);
  Printf.printf
    "\nshape: lazy activates exactly one call regardless of document size;\n\
     savings grow with the number of irrelevant sections\n"

(* --- E12: heterogeneous peers — delegating to a faster CPU ------- *)

let e12 =
  claim "E12" "Heterogeneous peers: delegating computation off a slow peer"
    ~about:
      "the data lives on a slow peer p1; p2 is fast and nearby.  Rule 10\n\
       delegation ships data+query to p2; the winner flips with p1's\n\
       slowdown factor."
  @@ fun () ->
  let q = Workload.Xml_gen.selection_query () in
  let build factor =
    let sys =
      Runtime.System.create
        (Net.Topology.full_mesh
           ~link:(Net.Link.make ~latency_ms:2.0 ~bandwidth_bytes_per_ms:2000.0)
           [ p1; p2; p3 ])
    in
    Net.Sim.set_cpu_factor (System.sim sys) p1 factor;
    let rng = Workload.Rng.create ~seed:12 in
    let g = Runtime.System.gen_of sys p1 in
    Runtime.System.add_document sys p1 ~name:"cat"
      (Workload.Xml_gen.catalog ~gen:g ~rng ~items:2000 ~selectivity:0.05 ());
    sys
  in
  let local = Expr.query_at q ~at:p1 ~args:[ Expr.doc "cat" ~at:"p1" ] in
  let delegated =
    Expr.query_app
      (Expr.Q_send { dest = p2; q = Expr.Q_val { q; at = p1 } })
      ~args:[ Expr.send_to_peer p2 (Expr.doc "cat" ~at:"p1") ]
      ~at:p2
  in
  table
    (List.map
       (fun factor ->
         let out_l = run_plan (build factor) local in
         let out_d = run_plan (build factor) delegated in
         [
           ("p1 slowdown", str (Printf.sprintf "%.0fx" factor));
           ("local ms", ms out_l.elapsed_ms); ("delegate ms", ms out_d.elapsed_ms);
           ( "winner",
             str (if out_l.elapsed_ms <= out_d.elapsed_ms then "local" else "delegate") );
           same_forest out_l.results out_d.results;
         ])
       [ 1.0; 10.0; 50.0; 200.0; 1000.0 ]);
  Printf.printf
    "\nshape: once the slow peer's compute time exceeds the round-trip\n\
     transfer, delegation wins; the crossover moves with the factor\n"

(* --- E13: single-site query optimization (ablation) -------------- *)

let e13 =
  claim "E13" "Query-level optimization: binding reordering ablation"
    ~about:
      "a self-join whose selective binding is written last; Optimize moves it\n\
       first so the early-filter evaluator prunes.  Enumerated binding tuples\n\
       and wall-clock CPU per catalog size:"
  @@ fun () ->
  let q =
    Query.Parser.parse_exn
      {|query(1) for $all in $0//item, $sel in $0//item
        where attr($sel, "category") = "wanted"
        return <pair/>|}
  in
  let optimized = Query.Optimize.optimize q in
  table
    (List.map
       (fun items ->
         let rng = Workload.Rng.create ~seed:13 in
         let g =
           Xml.Node_id.Gen.create ~namespace:(Printf.sprintf "e13-%d" items)
         in
         let input =
           [ Workload.Xml_gen.catalog ~gen:g ~rng ~items ~selectivity:0.05 () ]
         in
         let measure query =
           let (out, tuples), wall =
             cpu_ms (fun () ->
                 Query.Eval.eval_counted
                   ~gen:(Xml.Node_id.Gen.create ~namespace:"e13run")
                   query [ input ])
           in
           (List.length out, tuples, wall)
         in
         let n1, t1, ms1 = measure q in
         let n2, t2, ms2 = measure optimized in
         [
           ("items", int items); ("tuples naive", int t1); ("tuples reord", int t2);
           ("ratio", times t1 t2);
           ("naive ms", ms ms1); ("reord ms", ms ms2); ("same", flag (n1 = n2));
         ])
       [ 100; 400; 1600 ]);
  Printf.printf
    "\nshape: reordering turns O(n^2) enumeration into ~O(n + hits*n);\n\
     the saving factor approaches 1/(1+sel) * n/selected\n"

(* --- E14: distributed join over region-partitioned XMark data ---- *)

let e14 =
  claim "E14" "XMark: distributed join over region-partitioned auction data"
    ~about:
      "items are partitioned by region across peers; the auction list lives\n\
       on a hub.  Join auctions to item names: fetch every region's items to\n\
       the hub, or ship the (small) auction list to each region and join\n\
       there (rule 10 per partition)."
  @@ fun () ->
  let join_q =
    Query.Parser.parse_exn
      {|query(2) for $a in $0//auction, $i in $1//item, $n in $i/name, $c in $a/current
        where attr($a, "item") = attr($i, "id")
        return <sale>{$n}<price>{text($c)}</price></sale>|}
  in
  let hub = p1 in
  let region_peers =
    List.map Net.Peer_id.of_string Workload.Xmark.regions
  in
  let build scale_desc =
    let sys =
      Runtime.System.create
        (Net.Topology.star ~hub
           ~spoke_link:(Net.Link.make ~latency_ms:8.0 ~bandwidth_bytes_per_ms:120.0)
           (hub :: region_peers))
    in
    let rng = Workload.Rng.create ~seed:14 in
    let ggen = Runtime.System.gen_of sys hub in
    let scale =
      { Workload.Xmark.default_scale with description_bytes = scale_desc }
    in
    let site = Workload.Xmark.site ~scale ~gen:ggen ~rng () in
    (* Partition: auctions at the hub, each region's items at its
       peer. *)
    let part path =
      List.hd (Xml.Path.select (Xml.Path.of_string path) site)
    in
    Runtime.System.add_document sys hub ~name:"auctions"
      (Xml.Tree.copy ~gen:ggen (part "/auctions"));
    List.iter2
      (fun rp rname ->
        let g = Runtime.System.gen_of sys rp in
        Runtime.System.add_document sys rp ~name:"items"
          (Xml.Tree.copy ~gen:g (part ("/regions/" ^ rname))))
      region_peers Workload.Xmark.regions;
    sys
  in
  let naive =
    List.map
      (fun rp ->
        Expr.query_at join_q ~at:hub
          ~args:
            [
              Expr.doc "auctions" ~at:(Net.Peer_id.to_string hub);
              Expr.doc "items" ~at:(Net.Peer_id.to_string rp);
            ])
      region_peers
  in
  let distributed =
    List.map
      (fun rp ->
        Expr.query_app
          (Expr.Q_send { dest = rp; q = Expr.Q_val { q = join_q; at = hub } })
          ~args:
            [
              Expr.send_to_peer rp (Expr.doc "auctions" ~at:"p1");
              Expr.doc "items" ~at:(Net.Peer_id.to_string rp);
            ]
          ~at:rp)
      region_peers
  in
  let run_all sys plans =
    List.fold_left
      (fun (bytes, ms, results) plan ->
        let out = run_plan sys plan in
        (bytes + out.stats.bytes, max ms out.elapsed_ms, results @ out.results))
      (0, 0.0, []) plans
  in
  table
    (List.map
       (fun desc_bytes ->
         let nb, nms, nres = run_all (build desc_bytes) naive in
         let db, dms, dres = run_all (build desc_bytes) distributed in
         [
           ("desc bytes", int desc_bytes); ("fetch-all B", bytes nb);
           ("join-at-data B", bytes db);
           ("ratio", times nb db);
           ("fetch ms", ms nms); ("dist ms", ms dms);
           same_forest nres dres;
         ])
       [ 60; 240; 960 ]);
  Printf.printf
    "\nshape: a genuine crossover — with small items, shipping the auction\n\
     list to every region costs more than fetching the items; as item\n\
     payloads grow, joining at the data wins by a widening margin\n"

(* --- E15: the unified planner ------------------------------------ *)

let e15 =
  claim "E15" "Planner: best-first search and optimize-then-execute"
    ~gates:
      [
        gate ~table:"execute" "the planned plan reproduces the naive answer"
          (every "same");
      ]
    ~about:
      "part A — best-first search on three fixtures over 60 kB documents:\n\
       expansions, plans explored and the structural Expr.equal calls the\n\
       fingerprint-bucketed visited set pays (only on hash collisions)."
  @@ fun () ->
  let q = Workload.Xml_gen.selection_query () in
  let join =
    Query.Parser.parse_exn
      {|query(2) for $x in $0//item, $y in $1//item
        where attr($x, "category") = "wanted" and attr($y, "category") = "wanted"
        return <pair/>|}
  in
  let fetch = Expr.send_to_peer p1 (Expr.doc "cat" ~at:"p2") in
  let fixtures =
    [
      ("select", Expr.query_at q ~at:p1 ~args:[ Expr.doc "cat" ~at:"p2" ]);
      ("self-join", Expr.query_at join ~at:p1 ~args:[ fetch; fetch ]);
      ( "join-2-peers",
        Expr.query_at join ~at:p1
          ~args:[ Expr.doc "cat" ~at:"p2"; Expr.doc "cat" ~at:"p3" ] );
    ]
  in
  let env =
    Algebra.Cost.default_env
      ~doc_bytes:(fun _ -> 60_000)
      (Net.Topology.full_mesh ~link:default_link [ p1; p2; p3 ])
  in
  let strategy = Algebra.Optimizer.Best_first { max_expansions = 8 } in
  table ~name:"search"
    (List.map
       (fun (name, plan) ->
         let eq0 = Expr.equal_calls () in
         let r, wall =
           cpu_ms (fun () -> Algebra.Optimizer.optimize ~env ~ctx:p1 strategy plan)
         in
         [
           ("plan", str name);
           ("strategy", str (Algebra.Optimizer.strategy_name strategy));
           ("expansions", int r.Algebra.Optimizer.expansions);
           ("explored", int r.Algebra.Optimizer.explored);
           ("Expr.equal", int (Expr.equal_calls () - eq0)); ("ms", ms wall);
           ("cost", num "%.0f" (Algebra.Cost.weighted r.cost));
         ])
       fixtures);
  Printf.printf
    "\npart B — optimize-then-execute: the naive plan vs the planner's\n\
     choice (Exec.run_optimized against the live system's cost oracles),\n\
     simulator-measured.\n\n";
  table ~name:"execute"
    (List.map
       (fun items ->
         let build () = catalog_system ~items ~selectivity:0.05 ~seed:15 () in
         let naive = Expr.query_at q ~at:p1 ~args:[ Expr.doc "cat" ~at:"p2" ] in
         let sys_n, _ = build () in
         let out_n = run_plan sys_n naive in
         let sys_o, _ = build () in
         let planned, out_o =
           Runtime.Exec.run_optimized sys_o ~ctx:p1
             ~strategy:(Algebra.Optimizer.Best_first { max_expansions = 16 })
             naive
         in
         [
           ("items", int items); ("naive B", bytes out_n.stats.bytes);
           ("planned B", bytes out_o.stats.bytes);
           ("naive msgs", int out_n.stats.messages);
           ("planned msgs", int out_o.stats.messages);
           ("explored", int planned.Algebra.Planner.search.Algebra.Optimizer.explored);
           ("naive ms", ms out_n.elapsed_ms); ("planned ms", ms out_o.elapsed_ms);
           same_forest out_n.results out_o.results;
         ])
       [ 200; 1000; 4000 ]);
  Printf.printf
    "\nshape: eight expansions reach the exhaustive depth-2 optimum on every\n\
     fixture (test_planner checks it against an exhaustive oracle); the\n\
     executed planned plan ships a fraction of the naive bytes\n"

(* --- E16: observability ------------------------------------------ *)

(* How many correlation ids have spans on two or more peers: the
   cross-peer causal chains a trace must show. *)
let cross_peer_corrs events =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (e : Obs.Trace.event) ->
      if e.corr <> 0 then begin
        let ps = Option.value ~default:[] (Hashtbl.find_opt tbl e.corr) in
        if not (List.mem e.peer ps) then Hashtbl.replace tbl e.corr (e.peer :: ps)
      end)
    events;
  Hashtbl.fold (fun _ ps acc -> acc + if List.length ps >= 2 then 1 else 0) tbl 0

(* What [peer] sent over its remote links: (frames, bytes) as Stats
   charged them, and the bytes its [xfer] spans carry. *)
let stats_sent (st : Net.Stats.snapshot) peer =
  List.fold_left
    (fun (m, b) ((src, _), (m', b')) ->
      if Net.Peer_id.equal src peer then (m + m', b + b') else (m, b))
    (0, 0) st.per_link

let traced_sent xfers peer =
  List.fold_left
    (fun acc (x : Net.Sim.xfer) ->
      if Net.Peer_id.equal x.src peer && not (Net.Peer_id.equal x.dst peer)
      then acc + x.bytes
      else acc)
    0 xfers

let e16 =
  claim "E16" "Observability: traced Example-1, per-peer breakdowns"
    ~gates:
      [
        gate ~table:"peers" "trace agrees with Stats byte for byte"
          (every "trace = stats");
        gate ~table:"words" "disabled tracing allocates exactly the baseline" (fun rows ->
            let w t = List.find (fun r -> gets r "tracing" = t) rows in
            getf (w "disabled (before)") "words/send"
            = getf (w "disabled (after)") "words/send");
      ]
    ~about:
      "part A — the Example-1 runs of E1 under tracing + metrics: where the\n\
       bytes and CPU go, per peer, for the naive and the planned plan."
  @@ fun () ->
  let q = Workload.Xml_gen.selection_query () in
  let naive = Expr.query_at q ~at:p1 ~args:[ Expr.doc "cat" ~at:"p2" ] in
  let dist_sum snapshot ~peer ~subsystem name =
    List.fold_left
      (fun acc (e : Obs.Metrics.entry) ->
        match e.sample with
        | Obs.Metrics.Dist d
          when e.peer = peer && e.subsystem = subsystem && e.name = name ->
            acc +. d.sum
        | _ -> acc)
      0.0 snapshot
  in
  let traced_run label ~planned =
    Obs.Trace.set_enabled true;
    Obs.Trace.clear ();
    Obs.Metrics.set_enabled Obs.Metrics.default true;
    Obs.Metrics.reset Obs.Metrics.default;
    let sys, _ = catalog_system ~items:1000 ~selectivity:0.05 ~seed:7 () in
    let out =
      if planned then snd (Runtime.Exec.run_optimized sys ~ctx:p1 naive)
      else run_plan sys naive
    in
    let events = Obs.Trace.events () in
    let snapshot = Obs.Metrics.snapshot Obs.Metrics.default in
    let xfers = Net.Sim.xfers events in
    let rows =
      List.map
        (fun peer ->
          let pname = Net.Peer_id.to_string peer in
          let msgs, sent = stats_sent out.Runtime.Exec.stats peer in
          [
            ("plan", str label); ("peer", str pname);
            ("sent B", bytes sent);
            ("msgs", int msgs);
            ( "cpu ms",
              num "%.2f" (dist_sum snapshot ~peer:pname ~subsystem:"peer" "cpu_ms") );
            ( "events",
              int
                (List.length
                   (List.filter (fun (e : Obs.Trace.event) -> e.peer = pname) events)) );
            ("trace = stats", flag (traced_sent xfers peer = sent));
          ])
        [ p1; p2; p3 ]
    in
    (rows, events)
  in
  let rows_n, _ = traced_run "naive" ~planned:false in
  let rows_p, events_p = traced_run "planned" ~planned:true in
  Obs.Trace.set_enabled false;
  Obs.Trace.clear ();
  Obs.Metrics.set_enabled Obs.Metrics.default false;
  Obs.Metrics.reset Obs.Metrics.default;
  table ~name:"peers" (rows_n @ rows_p);
  Printf.printf
    "\nplanned run: %d trace events, %d correlation id(s) crossing >=2 peers\n"
    (List.length events_p) (cross_peer_corrs events_p);
  Printf.printf
    "\npart B — cost of the instrumentation on the Sim.send hot path:\n\
     minor-heap words allocated per send, measured with Gc.minor_words.\n\
     Disabled tracing must add nothing: two disabled measurements around\n\
     an enabled one must agree to the word.\n\n";
  let words_per_send label =
    let sim =
      Net.Sim.create (Net.Topology.full_mesh ~link:default_link [ p1; p2 ])
    in
    Net.Sim.set_handler sim p2 (fun ~src:_ () -> ());
    Net.Sim.set_handler sim p1 (fun ~src:_ () -> ());
    (* Warm up so one-time allocation (stats tables, heap nodes) is
       not charged to the measured window. *)
    ignore (Net.Sim.send sim ~src:p1 ~dst:p2 ~bytes:8 ());
    ignore (Net.Sim.run sim);
    let sends = 10_000 in
    let (), c =
      measure (fun () ->
          for _ = 1 to sends do
            ignore (Net.Sim.send sim ~src:p1 ~dst:p2 ~bytes:8 ())
          done)
    in
    ignore (Net.Sim.run sim);
    [ ("tracing", str label); ("words/send", num "%.1f" (c.words /. float_of_int sends)) ]
  in
  let disabled_a = words_per_send "disabled (before)" in
  Obs.Trace.set_enabled true;
  let enabled = words_per_send "enabled" in
  Obs.Trace.set_enabled false;
  Obs.Trace.clear ();
  table ~name:"words" [ disabled_a; enabled; words_per_send "disabled (after)" ];
  Printf.printf
    "\nshape: the per-peer table decomposes E1's byte totals — the catalog\n\
     transfer is all of p2's bytes under naive and vanishes under the\n\
     planned plan; disabled tracing allocates exactly the baseline\n\
     (the two disabled rows agree), enabled tracing pays ~a span record\n\
     per transfer\n"

let all = [ e1; e2; e3; e4; e5; e6; e7; e8; e9; e10; e11; e12; e13; e14; e15; e16 ]
