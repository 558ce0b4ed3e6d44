(* The experiment tables E1-E10 (see DESIGN.md §4 and EXPERIMENTS.md).
   The paper publishes no numeric tables, so each experiment
   regenerates the *claim* behind a rule of Section 3.3 with measured
   simulator statistics: who wins, by what factor, and where the
   crossovers sit. *)

open Axml
open Bench_util
module Expr = Algebra.Expr
module Names = Doc.Names
module Rewrite = Algebra.Rewrite
module System = Runtime.System

(* --- E1: Example 1, pushing selections -------------------------- *)

let e1 () =
  section "E1  Example 1: pushing selections (rule 10+11)";
  Printf.printf
    "query: names of matching items; naive ships the catalog, pushed ships hits\n\n";
  let q = Workload.Xml_gen.selection_query () in
  let rows =
    List.concat_map
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
            check_same "E1" out_n.results out_p.results;
            [
              string_of_int items;
              Printf.sprintf "%.0f%%" (sel *. 100.0);
              fmt_bytes cat_bytes;
              fmt_bytes out_n.stats.bytes;
              fmt_bytes out_p.stats.bytes;
              fmt_ratio
                (float_of_int out_n.stats.bytes
                /. float_of_int (max 1 out_p.stats.bytes));
              fmt_ms out_n.elapsed_ms;
              fmt_ms out_p.elapsed_ms;
            ])
          [ 0.01; 0.1; 0.5 ])
      [ 100; 1000; 5000 ]
  in
  table
    ~headers:
      [
        "items"; "sel"; "doc"; "naive B"; "pushed B"; "B ratio"; "naive ms";
        "pushed ms";
      ]
    rows;
  Printf.printf
    "\nshape: pushing wins everywhere; the factor grows as selectivity drops\n"

(* --- E2: rule 10, delegation crossover -------------------------- *)

let e2 () =
  section "E2  Rule 10: query delegation vs local evaluation";
  Printf.printf
    "data at p1, consumer at p2: evaluate locally then ship results, or\n\
     delegate (ship data+query to p2, evaluate there)?  The winner flips\n\
     with output/input ratio (selectivity).\n\n";
  let items = 1500 in
  let rows =
    List.map
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
            (Expr.Query_app
               {
                 query = Expr.Q_send { dest = p2; q = Expr.Q_val { q; at = p1 } };
                 args = [ Expr.send_to_peer p2 (Expr.doc "cat" ~at:"p1") ];
                 at = p2;
               })
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
        if doc_fp sys_l <> doc_fp sys_d then Printf.printf "  !! E2 mismatch\n";
        [
          Printf.sprintf "%.0f%%" (sel *. 100.0);
          fmt_bytes out_l.stats.bytes;
          fmt_bytes out_d.stats.bytes;
          (if out_l.stats.bytes <= out_d.stats.bytes then "local" else "delegate");
        ])
      [ 0.02; 0.1; 0.3; 0.6; 0.9 ]
  in
  table ~headers:[ "sel"; "eval-local B"; "delegate B"; "winner" ] rows;
  Printf.printf
    "\nshape: local-then-ship wins while results are small; once the\n\
     (expanding) output outweighs the input, delegation wins — the\n\
     crossover the rule exists for\n"

(* --- E3: rule 11, distributing a composed query ------------------ *)

let e3 () =
  section "E3  Rule 11: decomposing a composition across peers";
  Printf.printf
    "q = join(hits@p2, hits@p3): centralized (fetch both catalogs to p1)\n\
     vs distributed (sub-queries pushed to the data, rule 11 + rule 10)\n\n";
  let sub_query peer_doc =
    ignore peer_doc;
    Query.Parser.parse_exn
      {|query(1) for $x in $0//item where attr($x, "category") = "wanted" return <hit>{$x}</hit>|}
  in
  let head =
    Query.Parser.parse_exn
      "query(2) for $a in $0, $b in $1 return <pair>{$a}{$b}</pair>"
  in
  let rows =
    List.map
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
          Expr.Query_app
            {
              query =
                Expr.Q_val
                  {
                    q =
                      Query.Parser.parse_exn
                        {|compose { query(2) for $a in $0, $b in $1 return <pair>{$a}{$b}</pair> }
                          ({ query(2) for $x in $0//item where attr($x, "category") = "wanted" return <hit>{$x}</hit> };
                           { query(2) for $x in $1//item where attr($x, "category") = "wanted" return <hit>{$x}</hit> })|};
                    at = p1;
                  };
              args = [ Expr.doc "cat" ~at:"p2"; Expr.doc "cat" ~at:"p3" ];
              at = p1;
            }
        in
        (* Distributed: each selection runs at its data peer; only hits
           travel (rule 11 unfold + rule 10 per sub-query). *)
        let pushed_sub peer =
          Expr.Query_app
            {
              query =
                Expr.Q_send
                  { dest = peer; q = Expr.Q_val { q = sub_query peer; at = p1 } };
              args = [ Expr.doc "cat" ~at:(Net.Peer_id.to_string peer) ];
              at = peer;
            }
        in
        let distributed =
          Expr.Query_app
            {
              query = Expr.Q_val { q = head; at = p1 };
              args = [ pushed_sub p2; pushed_sub p3 ];
              at = p1;
            }
        in
        let out_c = run_plan (build ()) centralized in
        let out_d = run_plan (build ()) distributed in
        [
          string_of_int items;
          fmt_bytes out_c.stats.bytes;
          fmt_bytes out_d.stats.bytes;
          fmt_ratio
            (float_of_int out_c.stats.bytes /. float_of_int (max 1 out_d.stats.bytes));
          fmt_ms out_c.elapsed_ms;
          fmt_ms out_d.elapsed_ms;
        ])
      [ 200; 1000; 4000 ]
  in
  table
    ~headers:[ "items/peer"; "central B"; "distrib B"; "ratio"; "central ms"; "distrib ms" ]
    rows;
  Printf.printf "\nshape: distribution wins and scales with catalog size\n"

(* --- E4: rule 12, intermediary stops ----------------------------- *)

let e4 () =
  section "E4  Rule 12: when an intermediary stop pays off";
  Printf.printf
    "moving 1 catalog p2 -> p1 with a relay p3; the direct p2->p1 link is\n\
     slow, relay links are fast.  Sweeping the direct link's bandwidth.\n\n";
  let items = 1200 in
  let rows =
    List.map
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
          Expr.Send
            {
              dest = Expr.To_peer p1;
              expr =
                Expr.Send { dest = Expr.To_peer p3; expr = Expr.doc "cat" ~at:"p2" };
            }
        in
        let out_d = run_plan (build ()) direct in
        let out_r = run_plan (build ()) relayed in
        [
          Printf.sprintf "%.0f B/ms" direct_bw;
          fmt_ms out_d.elapsed_ms;
          fmt_ms out_r.elapsed_ms;
          fmt_bytes out_d.stats.bytes;
          fmt_bytes out_r.stats.bytes;
          (if out_d.elapsed_ms <= out_r.elapsed_ms then "direct" else "relay");
        ])
      [ 500.0; 100.0; 50.0; 20.0; 5.0 ]
  in
  table
    ~headers:[ "direct bw"; "direct ms"; "relay ms"; "direct B"; "relay B"; "faster" ]
    rows;
  Printf.printf
    "\nshape: the relay doubles bytes but wins on time once the direct link\n\
     is slow enough — the paper's remark that rule 12 is not one-way\n"

(* --- E5: rule 13, transfer sharing ------------------------------- *)

let e5 () =
  section "E5  Rule 13: sharing a repeated transfer via materialization";
  Printf.printf
    "a self-join needs the remote catalog twice; sharing materializes it\n\
     once (bytes halve); the sequencing the paper warns about stays off\n\
     the critical path here because both copies share one source link\n\n";
  let join =
    Query.Parser.parse_exn
      {|query(2) for $x in $0//item, $y in $1//item
        where attr($x, "category") = "wanted" and attr($y, "category") = "wanted"
        return <pair/>|}
  in
  let rows =
    List.map
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
        check_same "E5" out_t.results out_s.results;
        [
          string_of_int items;
          fmt_bytes out_t.stats.bytes;
          fmt_bytes out_s.stats.bytes;
          fmt_ratio
            (float_of_int out_t.stats.bytes /. float_of_int (max 1 out_s.stats.bytes));
          fmt_ms out_t.elapsed_ms;
          fmt_ms out_s.elapsed_ms;
        ])
      [ 200; 1000; 3000 ]
  in
  table
    ~headers:[ "items"; "unshared B"; "shared B"; "ratio"; "unshared ms"; "shared ms" ]
    rows;
  Printf.printf "\nshape: bytes halve at every size; latency gap stays small\n"

(* --- E6: rule 15, relocating sc evaluation ----------------------- *)

let e6 () =
  section "E6  Rule 15: relocating sc-rooted trees (fan-out sweep)";
  Printf.printf
    "an sc with k forward targets; activating it from the caller vs\n\
     relocating the activation to the provider (params skip one hop)\n\n";
  let items = 600 in
  let peers =
    p1 :: p2
    :: List.init 16 (fun i -> Net.Peer_id.of_string (Printf.sprintf "t%d" i))
  in
  let rows =
    List.map
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
        let relocated =
          Expr.Eval_at { at = p2; expr = Expr.Sc { sc = sc2; at = p2 } }
        in
        let reloc = run_plan sys2 relocated in
        [
          string_of_int k;
          fmt_bytes caller.stats.bytes;
          fmt_bytes reloc.stats.bytes;
          fmt_ms caller.elapsed_ms;
          fmt_ms reloc.elapsed_ms;
        ])
      [ 1; 2; 4; 8; 16 ]
  in
  table
    ~headers:[ "fan-out k"; "at-caller B"; "relocated B"; "caller ms"; "reloc ms" ]
    rows;
  Printf.printf
    "\nshape: the rule's claim is location independence — relocating the\n\
     activation changes neither results nor (within <1%% plan-shipping\n\
     overhead) cost; the response fan-out dominates and is identical\n"

(* --- E7: rule 16, pushing queries over service calls ------------- *)

let e7 () =
  section "E7  Rule 16: pushing a query over a service call";
  Printf.printf
    "q extracts names from a service's response; the provider's service\n\
     returns matching items.  Sweeping the match rate (= response size):\n\
     pushed ships q instead of the response, but re-ships parameters.\n\n";
  let probe =
    Query.Parser.parse_exn
      {|query(1) for $h in $0, $n in $h//name return <just_name>{$n}</just_name>|}
  in
  let items = 800 in
  let rows =
    List.map
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
          Expr.Query_app
            {
              query = Expr.Q_val { q = probe; at = p1 };
              args =
                [
                  Expr.Sc
                    {
                      sc =
                        Doc.Sc.make ~provider:(Names.At p2) ~service:"wanted"
                          [ [ param ] ];
                      at = p1;
                    };
                ];
              at = p1;
            }
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
        check_same "E7" naive.results pushed.results;
        [
          Printf.sprintf "%.0f%%" (match_rate *. 100.0);
          fmt_bytes naive.stats.bytes;
          fmt_bytes pushed.stats.bytes;
          (if naive.stats.bytes <= pushed.stats.bytes then "as-is" else "push");
        ])
      [ 0.02; 0.1; 0.3; 0.6; 0.9 ]
  in
  table ~headers:[ "match rate"; "naive B"; "pushed B"; "winner" ] rows;
  Printf.printf
    "\nshape: parameters ship once either way; pushing replaces the response\n\
     transfer with the (tiny) final result, so its margin grows with the\n\
     service's match rate\n"

(* --- E8: generic services, pick policies ------------------------- *)

let e8 () =
  section "E8  Definition 9: pick policies for generic resources";
  Printf.printf
    "one catalog replicated on 4 mirrors with heterogeneous links from the\n\
     client; 6 consecutive generic queries per policy\n\n";
  let mirrors =
    List.init 4 (fun i -> Net.Peer_id.of_string (Printf.sprintf "m%d" i))
  in
  let client = p1 in
  let build () =
    (* Mirror m_i sits behind a link of latency 5*(i+1), bw 500/(i+1). *)
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
  let rows =
    List.map
      (fun (name, policy_of) ->
        let sys = build () in
        (System.peer sys client).Runtime.Peer.policy <- policy_of sys;
        let total_bytes = ref 0 and total_ms = ref 0.0 in
        for _ = 1 to 6 do
          let out = run_plan sys plan in
          total_bytes := !total_bytes + out.stats.bytes;
          total_ms := !total_ms +. out.elapsed_ms
        done;
        [ name; fmt_bytes !total_bytes; fmt_ms !total_ms ])
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
      ]
  in
  table ~headers:[ "policy"; "bytes (6 runs)"; "total ms" ] rows;
  Printf.printf "\nshape: Nearest beats First/Random on completion time\n"

(* --- E9: continuous evaluation ----------------------------------- *)

let e9 () =
  section "E9  Continuous queries: incremental vs re-evaluation";
  Printf.printf
    "a stream of n catalog fragments into a continuous selection; CPU time\n\
     of processing every arrival incrementally vs re-running from scratch\n\n";
  let q = Workload.Xml_gen.selection_query () in
  let fragment seed =
    let rng = Workload.Rng.create ~seed in
    let g = Xml.Node_id.Gen.create ~namespace:(Printf.sprintf "e9-%d" seed) in
    Workload.Xml_gen.catalog ~gen:g ~rng ~items:30 ~selectivity:0.2 ()
  in
  let rows =
    List.map
      (fun n ->
        let stream = List.init n fragment in
        let g = Xml.Node_id.Gen.create ~namespace:"e9" in
        (* Incremental. *)
        let t0 = Sys.time () in
        let state = Query.Incremental.create q in
        let deltas =
          List.concat_map
            (fun t -> Query.Incremental.push ~gen:g state ~input:0 t)
            stream
        in
        let t_inc = Sys.time () -. t0 in
        (* Re-evaluation per arrival. *)
        let t0 = Sys.time () in
        let full = ref [] in
        let seen = ref [] in
        List.iter
          (fun t ->
            seen := !seen @ [ t ];
            full := Query.Eval.eval ~gen:g q [ !seen ])
          stream;
        let t_re = Sys.time () -. t0 in
        if not (Xml.Canonical.equal_forest deltas !full) then
          Printf.printf "  !! E9 mismatch\n";
        [
          string_of_int n;
          Printf.sprintf "%.1f" (t_inc *. 1000.0);
          Printf.sprintf "%.1f" (t_re *. 1000.0);
          fmt_ratio (t_re /. max 1e-9 t_inc);
        ])
      [ 16; 64; 128 ]
  in
  table ~headers:[ "stream len"; "incremental ms"; "re-eval ms"; "speedup" ] rows;
  Printf.printf "\nshape: re-evaluation grows quadratically, incremental linearly\n"

(* --- E10: optimizer end-to-end ----------------------------------- *)

let e10 () =
  section "E10 Optimizer: naive vs greedy vs exhaustive (+ablation)";
  Printf.printf
    "the E1 plan under the cost model; estimated cost, plans explored, and\n\
     the simulator-measured bytes of each strategy's chosen plan\n\n";
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
      ("greedy(5)", Some (Algebra.Optimizer.Greedy { max_steps = 5 }));
      ("exhaustive(1)", Some (Algebra.Optimizer.Exhaustive { depth = 1 }));
      ("exhaustive(2)", Some (Algebra.Optimizer.Exhaustive { depth = 2 }));
      ( "best-first(24)",
        Some (Algebra.Optimizer.Best_first { max_expansions = 24 }) );
      ("beam(4,2)", Some (Algebra.Optimizer.Beam { width = 4; depth = 2 }));
    ]
  in
  let reference = ref [] in
  let rows =
    List.map
      (fun (name, strategy) ->
        let plan, explored, est =
          match strategy with
          | None -> (naive, 1, Algebra.Cost.of_expr env ~ctx:p1 naive)
          | Some s ->
              let r = Algebra.Optimizer.optimize ~env ~ctx:p1 s naive in
              (r.plan, r.explored, r.cost)
        in
        let t0 = Sys.time () in
        let sys, _ = build () in
        let out = run_plan sys plan in
        let wall = (Sys.time () -. t0) *. 1000.0 in
        if !reference = [] then reference := out.results
        else check_same "E10" !reference out.results;
        [
          name;
          string_of_int explored;
          fmt_bytes est.Algebra.Cost.bytes;
          fmt_bytes out.stats.bytes;
          fmt_ms out.elapsed_ms;
          Printf.sprintf "%.0f" wall;
        ])
      strategies
  in
  table
    ~headers:
      [ "strategy"; "plans"; "est B"; "measured B"; "sim ms"; "search+run wall ms" ]
    rows;
  Printf.printf
    "\nshape: both strategies find the pushed plan; exhaustive explores far\n\
     more plans for the same answer — greedy is the practical default\n"

(* --- E11: lazy vs eager call activation -------------------------- *)

let e11 () =
  section "E11 Lazy evaluation: activating only query-relevant calls";
  Printf.printf
    "a portal document with one call per section; the query inspects one\n\
     section.  Eager activation fires everything; lazy activation uses the\n\
     path-relevance analysis (Query.Relevance).  Sweeping section count.\n\n";
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
  let rows =
    List.map
      (fun sections ->
        let eager =
          Axml_peer.Lazy_eval.eval_over_document (build sections) ~ctx:p1
            ~mode:Axml_peer.Lazy_eval.Eager ~query:q ~doc:"portal"
        in
        let lazy_ =
          Axml_peer.Lazy_eval.eval_over_document (build sections) ~ctx:p1
            ~mode:Axml_peer.Lazy_eval.Lazy ~query:q ~doc:"portal"
        in
        if not (Xml.Canonical.equal_forest eager.results lazy_.results) then
          Printf.printf "  !! E11 mismatch\n";
        [
          string_of_int sections;
          Printf.sprintf "%d/%d" eager.activated sections;
          Printf.sprintf "%d/%d" lazy_.activated sections;
          fmt_bytes eager.stats.bytes;
          fmt_bytes lazy_.stats.bytes;
          fmt_ratio
            (float_of_int eager.stats.bytes
            /. float_of_int (max 1 lazy_.stats.bytes));
        ])
      [ 2; 4; 8; 16 ]
  in
  table
    ~headers:
      [ "sections"; "eager calls"; "lazy calls"; "eager B"; "lazy B"; "ratio" ]
    rows;
  Printf.printf
    "\nshape: lazy activates exactly one call regardless of document size;\n\
     savings grow with the number of irrelevant sections\n"

(* --- E12: heterogeneous peers — delegating to a faster CPU ------- *)

let e12 () =
  section "E12 Heterogeneous peers: delegating computation off a slow peer";
  Printf.printf
    "the data lives on a slow peer p1; p2 is fast and nearby.  Rule 10\n\
     delegation ships data+query to p2; the winner flips with p1's\n\
     slowdown factor.\n\n";
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
    Expr.Query_app
      {
        query = Expr.Q_send { dest = p2; q = Expr.Q_val { q; at = p1 } };
        args = [ Expr.send_to_peer p2 (Expr.doc "cat" ~at:"p1") ];
        at = p2;
      }
  in
  let rows =
    List.map
      (fun factor ->
        let out_l = run_plan (build factor) local in
        let out_d = run_plan (build factor) delegated in
        check_same "E12" out_l.results out_d.results;
        [
          Printf.sprintf "%.0fx" factor;
          fmt_ms out_l.elapsed_ms;
          fmt_ms out_d.elapsed_ms;
          (if out_l.elapsed_ms <= out_d.elapsed_ms then "local" else "delegate");
        ])
      [ 1.0; 10.0; 50.0; 200.0; 1000.0 ]
  in
  table ~headers:[ "p1 slowdown"; "local ms"; "delegate ms"; "winner" ] rows;
  Printf.printf
    "\nshape: once the slow peer's compute time exceeds the round-trip\n\
     transfer, delegation wins; the crossover moves with the factor\n"

(* --- E13: single-site query optimization (ablation) -------------- *)

let e13 () =
  section "E13 Query-level optimization: binding reordering ablation";
  Printf.printf
    "a self-join whose selective binding is written last; Optimize moves it\n\
     first so the early-filter evaluator prunes.  Enumerated binding tuples\n\
     and wall-clock CPU per catalog size:\n\n";
  let q =
    Query.Parser.parse_exn
      {|query(1) for $all in $0//item, $sel in $0//item
        where attr($sel, "category") = "wanted"
        return <pair/>|}
  in
  let optimized = Query.Optimize.optimize q in
  let rows =
    List.map
      (fun items ->
        let rng = Workload.Rng.create ~seed:13 in
        let g =
          Xml.Node_id.Gen.create ~namespace:(Printf.sprintf "e13-%d" items)
        in
        let input =
          [ Workload.Xml_gen.catalog ~gen:g ~rng ~items ~selectivity:0.05 () ]
        in
        let measure query =
          let t0 = Sys.time () in
          let out, tuples =
            Query.Eval.eval_counted
              ~gen:(Xml.Node_id.Gen.create ~namespace:"e13run")
              query [ input ]
          in
          (List.length out, tuples, (Sys.time () -. t0) *. 1000.0)
        in
        let n1, t1, ms1 = measure q in
        let n2, t2, ms2 = measure optimized in
        if n1 <> n2 then Printf.printf "  !! E13 result mismatch\n";
        [
          string_of_int items;
          string_of_int t1;
          string_of_int t2;
          fmt_ratio (float_of_int t1 /. float_of_int (max 1 t2));
          Printf.sprintf "%.1f" ms1;
          Printf.sprintf "%.1f" ms2;
        ])
      [ 100; 400; 1600 ]
  in
  table
    ~headers:
      [ "items"; "tuples naive"; "tuples reord"; "ratio"; "naive ms"; "reord ms" ]
    rows;
  Printf.printf
    "\nshape: reordering turns O(n^2) enumeration into ~O(n + hits*n);\n\
     the saving factor approaches 1/(1+sel) * n/selected\n"

(* --- E14: distributed join over region-partitioned XMark data ---- *)

let e14 () =
  section "E14 XMark: distributed join over region-partitioned auction data";
  Printf.printf
    "items are partitioned by region across peers; the auction list lives\n\
     on a hub.  Join auctions to item names: fetch every region's items to\n\
     the hub, or ship the (small) auction list to each region and join\n\
     there (rule 10 per partition).\n\n";
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
        Expr.Query_app
          {
            query = Expr.Q_send { dest = rp; q = Expr.Q_val { q = join_q; at = hub } };
            args =
              [
                Expr.send_to_peer rp (Expr.doc "auctions" ~at:"p1");
                Expr.doc "items" ~at:(Net.Peer_id.to_string rp);
              ];
            at = rp;
          })
      region_peers
  in
  let run_all sys plans =
    List.fold_left
      (fun (bytes, ms, results) plan ->
        let out = run_plan sys plan in
        (bytes + out.stats.bytes, max ms out.elapsed_ms, results @ out.results))
      (0, 0.0, []) plans
  in
  let rows =
    List.map
      (fun desc_bytes ->
        let nb, nms, nres = run_all (build desc_bytes) naive in
        let db, dms, dres = run_all (build desc_bytes) distributed in
        check_same "E14" nres dres;
        [
          string_of_int desc_bytes;
          fmt_bytes nb;
          fmt_bytes db;
          fmt_ratio (float_of_int nb /. float_of_int (max 1 db));
          fmt_ms nms;
          fmt_ms dms;
        ])
      [ 60; 240; 960 ]
  in
  table
    ~headers:
      [ "desc bytes"; "fetch-all B"; "join-at-data B"; "ratio"; "fetch ms"; "dist ms" ]
    rows;
  Printf.printf
    "\nshape: a genuine crossover — with small items, shipping the auction\n\
     list to every region costs more than fetching the items; as item\n\
     payloads grow, joining at the data wins by a widening margin\n"

(* --- E15: the unified planner ------------------------------------ *)

let e15 () =
  section "E15 Planner: fingerprint memo ablation and search strategies";
  Printf.printf
    "part A — the visited set: exhaustive(2) with the seed's O(n^2) list\n\
     scan vs the fingerprint-bucketed memo.  Same plan space, same best\n\
     cost; the memo pays for structural Expr.equal only on hash-bucket\n\
     collisions.\n\n";
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
  let timed_search ~visited strategy plan =
    let eq0 = Expr.equal_calls () in
    let t0 = Sys.time () in
    let r = Algebra.Optimizer.optimize ~env ~ctx:p1 ~visited strategy plan in
    ((Sys.time () -. t0) *. 1000.0, Expr.equal_calls () - eq0, r)
  in
  let rows =
    List.concat_map
      (fun (name, plan) ->
        let strategy = Algebra.Optimizer.Exhaustive { depth = 2 } in
        let ms_l, eq_l, r_l = timed_search ~visited:`List strategy plan in
        let ms_f, eq_f, r_f = timed_search ~visited:`Fingerprint strategy plan in
        if
          r_l.Algebra.Optimizer.explored <> r_f.Algebra.Optimizer.explored
          || Algebra.Cost.weighted r_l.cost <> Algebra.Cost.weighted r_f.cost
        then Printf.printf "  !! E15 memo/list divergence on %s\n" name;
        [
          [
            name; "list"; string_of_int r_l.Algebra.Optimizer.explored;
            string_of_int eq_l; fmt_ms ms_l;
            Printf.sprintf "%.0f" (Algebra.Cost.weighted r_l.cost);
          ];
          [
            name; "fingerprint"; string_of_int r_f.Algebra.Optimizer.explored;
            string_of_int eq_f; fmt_ms ms_f;
            Printf.sprintf "%.0f" (Algebra.Cost.weighted r_f.cost);
          ];
        ])
      fixtures
  in
  table
    ~headers:[ "plan"; "visited"; "explored"; "Expr.equal"; "search ms"; "best cost" ]
    rows;
  Printf.printf
    "\npart B — strategies on the same space: expansions and plans explored\n\
     to reach (or approach) the exhaustive-optimal cost.\n\n";
  let strategies =
    [
      Algebra.Optimizer.Exhaustive { depth = 2 };
      Algebra.Optimizer.Greedy { max_steps = 4 };
      Algebra.Optimizer.Best_first { max_expansions = 8 };
      Algebra.Optimizer.Beam { width = 4; depth = 2 };
    ]
  in
  let rows =
    List.concat_map
      (fun (name, plan) ->
        let optimum =
          (Algebra.Optimizer.optimize ~env ~ctx:p1
             (Algebra.Optimizer.Exhaustive { depth = 2 })
             plan)
            .Algebra.Optimizer.cost
        in
        List.map
          (fun strategy ->
            let ms, _, r = timed_search ~visited:`Fingerprint strategy plan in
            [
              name;
              Algebra.Optimizer.strategy_name strategy;
              string_of_int r.Algebra.Optimizer.expansions;
              string_of_int r.Algebra.Optimizer.explored;
              fmt_ms ms;
              Printf.sprintf "%.0f" (Algebra.Cost.weighted r.cost);
              (if
                 Algebra.Cost.weighted r.cost
                 <= Algebra.Cost.weighted optimum +. 1e-9
               then "yes"
               else "no");
            ])
          strategies)
      fixtures
  in
  table
    ~headers:
      [ "plan"; "strategy"; "expansions"; "explored"; "ms"; "cost"; "optimal?" ]
    rows;
  Printf.printf
    "\npart C — optimize-then-execute: the naive plan vs the planner's\n\
     choice (Exec.run_optimized against the live system's cost oracles),\n\
     simulator-measured.\n\n";
  let rows =
    List.map
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
        check_same "E15" out_n.results out_o.results;
        [
          string_of_int items;
          fmt_bytes out_n.stats.bytes;
          fmt_bytes out_o.stats.bytes;
          string_of_int out_n.stats.messages;
          string_of_int out_o.stats.messages;
          string_of_int planned.Algebra.Planner.search.Algebra.Optimizer.explored;
          fmt_ms out_n.elapsed_ms;
          fmt_ms out_o.elapsed_ms;
        ])
      [ 200; 1000; 4000 ]
  in
  table
    ~headers:
      [
        "items"; "naive B"; "planned B"; "naive msgs"; "planned msgs";
        "explored"; "naive ms"; "planned ms";
      ]
    rows;
  Printf.printf
    "\nshape: the memo explores the identical plan set for a fraction of the\n\
     structural comparisons; best-first reaches the exhaustive optimum\n\
     with a fraction of the expansions; the executed planned plan ships\n\
     a fraction of the naive bytes\n"

(* --- E16: observability ------------------------------------------ *)

let e16 () =
  section "E16 Observability: traced Example-1, per-peer breakdowns";
  Printf.printf
    "part A — the Example-1 runs of E1 under tracing + metrics: where the\n\
     bytes and CPU go, per peer, for the naive and the planned plan.\n\n";
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
    let rows =
      List.map
        (fun peer ->
          let pname = Net.Peer_id.to_string peer in
          let bytes =
            Obs.Metrics.counter_value Obs.Metrics.default ~peer:pname
              ~subsystem:"net" "bytes_sent"
          in
          let msgs =
            Obs.Metrics.counter_value Obs.Metrics.default ~peer:pname
              ~subsystem:"net" "messages_sent"
          in
          let cpu = dist_sum snapshot ~peer:pname ~subsystem:"peer" "cpu_ms" in
          let spans =
            List.length
              (List.filter
                 (fun (e : Obs.Trace.event) -> e.peer = pname)
                 events)
          in
          [
            label; pname; fmt_bytes bytes; string_of_int msgs;
            Printf.sprintf "%.2f" cpu; string_of_int spans;
          ])
        [ p1; p2; p3 ]
    in
    let metric_bytes =
      int_of_float
        (Obs.Metrics.total Obs.Metrics.default ~subsystem:"net" "bytes_sent")
    in
    if metric_bytes <> out.Runtime.Exec.stats.bytes then
      Printf.printf "  !! E16 %s: metrics %dB vs stats %dB\n" label metric_bytes
        out.Runtime.Exec.stats.bytes;
    (rows, events, out)
  in
  let rows_n, _, _ = traced_run "naive" ~planned:false in
  let rows_p, events_p, _ = traced_run "planned" ~planned:true in
  Obs.Trace.set_enabled false;
  Obs.Trace.clear ();
  Obs.Metrics.set_enabled Obs.Metrics.default false;
  Obs.Metrics.reset Obs.Metrics.default;
  table
    ~headers:[ "plan"; "peer"; "sent B"; "msgs"; "cpu ms"; "events" ]
    (rows_n @ rows_p);
  let cross =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (e : Obs.Trace.event) ->
        if e.corr <> 0 then begin
          let ps = Option.value ~default:[] (Hashtbl.find_opt tbl e.corr) in
          if not (List.mem e.peer ps) then Hashtbl.replace tbl e.corr (e.peer :: ps)
        end)
      events_p;
    Hashtbl.fold (fun _ ps acc -> acc + if List.length ps >= 2 then 1 else 0) tbl 0
  in
  Printf.printf
    "\nplanned run: %d trace events, %d correlation id(s) crossing >=2 peers\n"
    (List.length events_p) cross;
  Printf.printf
    "\npart B — cost of the instrumentation on the Sim.send hot path:\n\
     minor-heap words allocated per send, measured with Gc.minor_words.\n\
     Disabled tracing must add nothing: two disabled measurements around\n\
     an enabled one must agree to the word.\n\n";
  let words_per_send () =
    let sim =
      Net.Sim.create (Net.Topology.full_mesh ~link:default_link [ p1; p2 ])
    in
    Net.Sim.set_handler sim p2 (fun ~src:_ () -> ());
    Net.Sim.set_handler sim p1 (fun ~src:_ () -> ());
    (* Warm up so one-time allocation (stats tables, heap nodes) is
       not charged to the measured window. *)
    Net.Sim.send sim ~src:p1 ~dst:p2 ~bytes:8 ();
    ignore (Net.Sim.run sim);
    let sends = 10_000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to sends do
      Net.Sim.send sim ~src:p1 ~dst:p2 ~bytes:8 ()
    done;
    let w1 = Gc.minor_words () in
    ignore (Net.Sim.run sim);
    (w1 -. w0) /. float_of_int sends
  in
  let disabled_a = words_per_send () in
  Obs.Trace.set_enabled true;
  let enabled = words_per_send () in
  Obs.Trace.set_enabled false;
  Obs.Trace.clear ();
  let disabled_b = words_per_send () in
  table
    ~headers:[ "tracing"; "words/send" ]
    [
      [ "disabled (before)"; Printf.sprintf "%.1f" disabled_a ];
      [ "enabled"; Printf.sprintf "%.1f" enabled ];
      [ "disabled (after)"; Printf.sprintf "%.1f" disabled_b ];
    ];
  if disabled_a <> disabled_b then
    Printf.printf "  !! E16: disabled-path allocation changed (%.1f vs %.1f)\n"
      disabled_a disabled_b;
  Printf.printf
    "\nshape: the per-peer table decomposes E1's byte totals — the catalog\n\
     transfer is all of p2's bytes under naive and vanishes under the\n\
     planned plan; disabled tracing allocates exactly the baseline\n\
     (the two disabled rows agree), enabled tracing pays ~a span record\n\
     per transfer\n"

(* --- E17: indexed document stores vs naive evaluation ------------ *)

(* Wall-clock milliseconds of the best of [n] runs (first-run noise —
   allocation, lazy compilation — must not be charged to either
   engine). *)
let best_ms ?(n = 3) f =
  let best = ref infinity in
  let res = ref None in
  for _ = 1 to n do
    let t0 = Sys.time () in
    let r = f () in
    let ms = (Sys.time () -. t0) *. 1000.0 in
    if ms < !best then best := ms;
    res := Some r
  done;
  (!best, Option.get !res)

(* A catalog whose descendant-step selectivity is controlled twice
   over: a [sel] fraction of items carries the "wanted" category
   attribute (candidate-bound selection: the predicate is checked per
   item by both engines), and the same fraction carries a <promo>
   child element (label-bound selection: the index answers //promo
   from postings while the interpreter walks the whole document). *)
let promo_catalog ~gen ~rng ~items ~sel =
  let open Xml in
  let item i =
    let matches = Workload.Rng.float rng 1.0 < sel in
    let category = if matches then "wanted" else "misc" in
    let promo =
      if matches then
        [
          Tree.element ~gen (Label.of_string "promo")
            [ Tree.text (Printf.sprintf "deal-%d" i) ];
        ]
      else []
    in
    Tree.element ~gen (Label.of_string "item")
      ~attrs:[ ("id", string_of_int i); ("category", category) ]
      (promo
      @ [
          Tree.element ~gen (Label.of_string "name")
            [ Tree.text (Printf.sprintf "item-%d" i) ];
          Tree.element ~gen (Label.of_string "price")
            [ Tree.text (string_of_int (1 + Workload.Rng.int rng 1000)) ];
          Tree.element ~gen (Label.of_string "payload")
            [ Tree.text (String.make 64 'x') ];
        ])
  in
  Tree.element ~gen (Label.of_string "catalog") (List.init items item)

let rare_label_query =
  lazy (Query.Parser.parse_exn "query(1) for $p in $0//promo return <hit>{$p}</hit>")

(* Minimal JSON rendering — every number this experiment emits is
   finite by construction (ratios divide by a clamped denominator). *)
let json_f x = Printf.sprintf "%.6g" x
let json_b b = if b then "true" else "false"
let json_s s = Printf.sprintf "%S" s
let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_s k ^ ": " ^ v) fields) ^ "}"
let json_arr items = "[" ^ String.concat ", " items ^ "]"

let write_json path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc contents;
      output_char oc '\n')

(* A previous BENCH_summary.json may hold experiments whose
   per-experiment artifact is no longer on disk (pruned, or produced
   by an earlier invocation in another tree).  Those entries must
   survive a re-run of any single experiment, so the envelope is a
   merge, not a rebuild — see {!write_summary}.  This extracts the
   ["experiments"] object of the old envelope as raw (key, json-text)
   pairs with a scanner matched to the hand-rolled writer: strings are
   skipped escape-aware, composite values are delimited by bracket
   balance.  Any parse trouble degrades to "no previous entries" —
   the summary is a derived artifact, never an input to experiments. *)
exception Bad_summary

let previous_summary_entries path =
  if not (Sys.file_exists path) then []
  else
    try
      let ic = open_in_bin path in
      let s =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let n = String.length s in
      let ws i =
        let j = ref i in
        while
          !j < n
          && match s.[!j] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
        do
          incr j
        done;
        !j
      in
      (* [i] at the opening quote; index just past the closing one. *)
      let string_end i =
        let j = ref (i + 1) in
        while !j < n && s.[!j] <> '"' do
          if s.[!j] = '\\' then j := !j + 2 else incr j
        done;
        if !j >= n then raise Bad_summary;
        !j + 1
      in
      let value_end i =
        let i = ws i in
        if i >= n then raise Bad_summary;
        match s.[i] with
        | '"' -> string_end i
        | ('{' | '[') as opening ->
            let close = if opening = '{' then '}' else ']' in
            let depth = ref 1 and j = ref (i + 1) in
            while !depth > 0 do
              if !j >= n then raise Bad_summary;
              (match s.[!j] with
              | '"' -> j := string_end !j - 1
              | c when c = opening -> incr depth
              | c when c = close -> decr depth
              | _ -> ());
              incr j
            done;
            !j
        | _ ->
            let j = ref i in
            while
              !j < n
              && match s.[!j] with ',' | '}' | ']' -> false | _ -> true
            do
              incr j
            done;
            !j
      in
      (* [i] at (or before) '{'; [f key value_start value_end] per
         member; index just past the matching '}'. *)
      let parse_object i f =
        let i = ws i in
        if i >= n || s.[i] <> '{' then raise Bad_summary;
        let j = ref (ws (i + 1)) in
        if !j < n && s.[!j] = '}' then !j + 1
        else begin
          let result = ref (-1) in
          while !result < 0 do
            let k0 = ws !j in
            if k0 >= n || s.[k0] <> '"' then raise Bad_summary;
            let k1 = string_end k0 in
            let key = String.sub s (k0 + 1) (k1 - k0 - 2) in
            let c = ws k1 in
            if c >= n || s.[c] <> ':' then raise Bad_summary;
            let v0 = ws (c + 1) in
            let v1 = value_end v0 in
            f key v0 v1;
            let next = ws v1 in
            if next < n && s.[next] = ',' then j := next + 1
            else if next < n && s.[next] = '}' then result := next + 1
            else raise Bad_summary
          done;
          !result
        end
      in
      let entries = ref [] in
      ignore
        (parse_object 0 (fun key v0 _v1 ->
             if String.equal key "experiments" then
               ignore
                 (parse_object v0 (fun k e0 e1 ->
                      entries := (k, String.sub s e0 (e1 - e0)) :: !entries))));
      List.rev !entries
    with _ -> []

(* BENCH_summary.json: one uniform envelope embedding every
   BENCH_E<n>.json artifact, keyed by experiment id.  Every experiment
   calls this after writing its own artifact — a dashboard reads one
   file with one schema instead of one ad-hoc schema per experiment.
   The envelope merges the previous summary with the artifacts present
   in the working directory, on-disk artifacts winning on key clashes.
   (Regression: it used to be rebuilt from the directory scan alone,
   so re-running one experiment silently dropped every entry whose
   BENCH_E<n>.json was not sitting next to it.) *)
let write_summary () =
  let files =
    Sys.readdir "." |> Array.to_list
    |> List.filter (fun f ->
           String.starts_with ~prefix:"BENCH_E" f
           && Filename.check_suffix f ".json")
    |> List.sort compare
  in
  let disk =
    List.map
      (fun f ->
        let key =
          let base = Filename.chop_suffix f ".json" in
          String.sub base 6 (String.length base - 6)
        in
        let ic = open_in_bin f in
        let contents =
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        (key, String.trim contents))
      files
  in
  let merged =
    let tbl = Hashtbl.create 16 in
    List.iter (fun (k, v) -> Hashtbl.replace tbl k v)
      (previous_summary_entries "BENCH_summary.json");
    List.iter (fun (k, v) -> Hashtbl.replace tbl k v) disk;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  write_json "BENCH_summary.json"
    ("{" ^ json_s "schema_version" ^ ": 2, " ^ json_s "experiments" ^ ": {"
    ^ String.concat ", "
        (List.map (fun (k, v) -> json_s k ^ ": " ^ v) merged)
    ^ "}}")

let e17 ?(smoke = false) () =
  section
    (if smoke then "E17  indexed store vs naive evaluation (smoke)"
     else "E17  indexed store vs naive evaluation");
  Printf.printf
    "part A — one query, two evaluators over the same document: naive is\n\
     the seed interpreter Query.Eval (full traversal per descendant step),\n\
     indexed is Query.Compile over the store's structural index.\n\
     \"rare-label\" binds //promo (matches only the selected fraction);\n\
     \"attr-sel\" binds //item and filters on an attribute (candidate\n\
     work dominates — the honest case where indexing helps less).\n\n";
  Obs.Metrics.set_enabled Obs.Metrics.default true;
  Obs.Metrics.reset Obs.Metrics.default;
  let item_sizes = if smoke then [ 14; 143 ] else [ 14; 143; 1_430; 14_300 ] in
  let sels = [ 0.01; 0.1; 0.5 ] in
  let all_identical = ref true in
  let eval_gen () = Xml.Node_id.Gen.create ~namespace:"e17out" in
  let sweep =
    List.concat_map
      (fun items ->
        List.concat_map
          (fun sel ->
            let rng = Workload.Rng.create ~seed:17 in
            let g = Xml.Node_id.Gen.create ~namespace:"e17" in
            let doc = promo_catalog ~gen:g ~rng ~items ~sel in
            let nodes = Xml.Tree.size doc in
            let build_ms, ix = best_ms (fun () -> Xml.Index.build doc) in
            List.map
              (fun (qname, q) ->
                let naive_ms, out_n =
                  best_ms (fun () ->
                      Query.Eval.eval ~gen:(eval_gen ()) q [ [ doc ] ])
                in
                let indexed_ms, out_i =
                  best_ms (fun () ->
                      Query.Compile.eval_over ~gen:(eval_gen ()) q
                        [ ([ doc ], Some ix) ])
                in
                let identical =
                  Xml.Serializer.forest_to_string out_n
                  = Xml.Serializer.forest_to_string out_i
                in
                if not identical then begin
                  all_identical := false;
                  Printf.printf "  !! E17 %s items=%d sel=%.2f: outputs differ\n"
                    qname items sel
                end;
                let speedup = naive_ms /. max indexed_ms 1e-4 in
                (qname, items, nodes, sel, build_ms, naive_ms, indexed_ms,
                 speedup, identical))
              [
                ("rare-label", Lazy.force rare_label_query);
                ("attr-sel", Workload.Xml_gen.selection_query ());
              ])
          sels)
      item_sizes
  in
  table
    ~headers:
      [ "query"; "items"; "nodes"; "sel"; "build ms"; "naive ms"; "indexed ms";
        "speedup" ]
    (List.map
       (fun (qn, items, nodes, sel, b, n, i, s, _) ->
         [
           qn; string_of_int items; string_of_int nodes;
           Printf.sprintf "%.2f" sel; Printf.sprintf "%.2f" b;
           Printf.sprintf "%.3f" n; Printf.sprintf "%.4f" i;
           fmt_ratio s;
         ])
       sweep);
  let hits =
    int_of_float (Obs.Metrics.total Obs.Metrics.default ~subsystem:"query" "index_hits")
  in
  let fallbacks =
    int_of_float (Obs.Metrics.total Obs.Metrics.default ~subsystem:"query" "fallback")
  in
  Printf.printf
    "\nmetrics: %d descendant steps served from postings, %d traversal fallbacks\n"
    hits fallbacks;
  Obs.Metrics.set_enabled Obs.Metrics.default false;
  Obs.Metrics.reset Obs.Metrics.default;
  Printf.printf
    "\npart B — streaming appends: one small item appended per round at a\n\
     random existing node; the index absorbs each append as a fresh\n\
     segment (cost bounded by the appended subtree and the rebuilt\n\
     spine), versus rebuilding the index from scratch each round\n\
     (cost proportional to the whole document).\n\n";
  let append_rounds = if smoke then 10 else 50 in
  let maint_sizes = if smoke then [ 143 ] else [ 143; 1_430; 14_300 ] in
  let maintenance =
    List.map
      (fun items ->
        let rng = Workload.Rng.create ~seed:18 in
        let g = Xml.Node_id.Gen.create ~namespace:"e17b" in
        let doc = ref (promo_catalog ~gen:g ~rng ~items ~sel:0.1) in
        let nodes0 = Xml.Tree.size !doc in
        let targets =
          let rec collect acc t =
            match t with
            | Xml.Tree.Text _ -> acc
            | Xml.Tree.Element e -> List.fold_left collect (e.id :: acc) e.children
          in
          Array.of_list (collect [] !doc)
        in
        let ix = Xml.Index.build !doc in
        let insert_ms = ref 0.0
        and maintain_ms = ref 0.0
        and rebuild_ms = ref 0.0
        and rebuild_samples = ref 0 in
        for i = 1 to append_rounds do
          let under = targets.(Workload.Rng.int rng (Array.length targets)) in
          let forest =
            [
              Xml.Tree.element ~gen:g (Xml.Label.of_string "item")
                ~attrs:[ ("id", Printf.sprintf "new%d" i); ("category", "wanted") ]
                [
                  Xml.Tree.element ~gen:g (Xml.Label.of_string "name")
                    [ Xml.Tree.text (Printf.sprintf "fresh-%d" i) ];
                ];
            ]
          in
          let t0 = Sys.time () in
          let t' = Option.get (Xml.Tree.insert_children ~under forest !doc) in
          insert_ms := !insert_ms +. ((Sys.time () -. t0) *. 1000.0);
          let t0 = Sys.time () in
          let ok = Xml.Index.append ix ~new_root:t' ~under forest in
          maintain_ms := !maintain_ms +. ((Sys.time () -. t0) *. 1000.0);
          if not ok then Printf.printf "  !! E17 append rejected (round %d)\n" i;
          (* Sample the from-scratch alternative sparsely: at 1e5 nodes
             a full rebuild costs ~100ms and would dominate the run. *)
          if i mod 10 = 1 then begin
            let t0 = Sys.time () in
            ignore (Xml.Index.build t');
            rebuild_ms := !rebuild_ms +. ((Sys.time () -. t0) *. 1000.0);
            incr rebuild_samples
          end;
          doc := t'
        done;
        let per x = x /. float_of_int append_rounds in
        let rebuild_per = !rebuild_ms /. float_of_int (max 1 !rebuild_samples) in
        let q = Workload.Xml_gen.selection_query () in
        let out_i =
          Query.Compile.eval_over ~gen:(eval_gen ()) q [ ([ !doc ], Some ix) ]
        in
        let out_n = Query.Eval.eval ~gen:(eval_gen ()) q [ [ !doc ] ] in
        let identical =
          Xml.Serializer.forest_to_string out_i
          = Xml.Serializer.forest_to_string out_n
        in
        if not identical then begin
          all_identical := false;
          Printf.printf "  !! E17 post-append results differ (%d items)\n" items
        end;
        (items, nodes0, per !insert_ms, per !maintain_ms, rebuild_per,
         rebuild_per /. max (per !maintain_ms) 1e-4,
         Xml.Index.segment_count ix, identical))
      maint_sizes
  in
  table
    ~headers:
      [ "items"; "nodes"; "insert ms"; "maintain ms"; "rebuild ms"; "ratio";
        "segments" ]
    (List.map
       (fun (items, nodes, ins, m, r, ratio, segs, _) ->
         [
           string_of_int items; string_of_int nodes; Printf.sprintf "%.4f" ins;
           Printf.sprintf "%.4f" m; Printf.sprintf "%.3f" r; fmt_ratio ratio;
           string_of_int segs;
         ])
       maintenance);
  Printf.printf
    "\npart C — planner output estimates for query(doc) with and without\n\
     store statistics: \"before\" is the flat input/5 heuristic, \"after\"\n\
     reads exact per-label counts off the document's index\n\
     (Selectivity.sketch).  err = |estimate - actual| / actual.\n\n";
  let items_c = if smoke then 143 else 1_430 in
  let topo = Net.Topology.full_mesh ~link:default_link [ p1; p2 ] in
  let cost_rows =
    List.concat_map
      (fun sel ->
        let rng = Workload.Rng.create ~seed:19 in
        let g = Xml.Node_id.Gen.create ~namespace:"e17c" in
        let doc = promo_catalog ~gen:g ~rng ~items:items_c ~sel in
        let store = Doc.Store.create () in
        Doc.Store.add store (Doc.Document.make ~name:"cat" doc);
        let stats =
          Doc.Store.stats_of store (Doc.Names.Doc_name.of_string "cat")
        in
        let bytes = Xml.Tree.byte_size doc in
        let env_before = Algebra.Cost.default_env ~doc_bytes:(fun _ -> bytes) topo in
        let env_after =
          Algebra.Cost.default_env ~doc_bytes:(fun _ -> bytes)
            ~doc_stats:(fun _ -> stats) topo
        in
        List.map
          (fun (qname, q) ->
            let plan =
              Expr.query_at q ~at:p1 ~args:[ Expr.doc "cat" ~at:"p2" ]
            in
            let est env =
              (Algebra.Cost.of_expr env ~ctx:p1 plan).Algebra.Cost.result_bytes
            in
            let actual =
              Xml.Forest.byte_size
                (Query.Compile.eval ~gen:(eval_gen ()) q [ [ doc ] ])
            in
            let err est =
              Float.abs (float_of_int (est - actual)) /. float_of_int (max 1 actual)
            in
            (qname, sel, actual, est env_before, est env_after,
             err (est env_before), err (est env_after)))
          [
            ("rare-label", Lazy.force rare_label_query);
            ("attr-sel", Workload.Xml_gen.selection_query ());
          ])
      sels
  in
  table
    ~headers:
      [ "query"; "sel"; "actual B"; "est before"; "est after"; "err before";
        "err after" ]
    (List.map
       (fun (qn, sel, actual, eb, ea, errb, erra) ->
         [
           qn; Printf.sprintf "%.2f" sel; string_of_int actual;
           string_of_int eb; string_of_int ea; Printf.sprintf "%.1fx" errb;
           Printf.sprintf "%.1fx" erra;
         ])
       cost_rows);
  (* --- machine-readable artifacts -------------------------------- *)
  let sweep_json =
    json_arr
      (List.map
         (fun (qn, items, nodes, sel, b, n, i, s, ident) ->
           json_obj
             [
               ("query", json_s qn); ("items", string_of_int items);
               ("nodes", string_of_int nodes); ("selectivity", json_f sel);
               ("build_ms", json_f b); ("naive_ms", json_f n);
               ("indexed_ms", json_f i); ("speedup", json_f s);
               ("identical", json_b ident);
             ])
         sweep)
  in
  let maint_json =
    json_arr
      (List.map
         (fun (items, nodes, ins, m, r, ratio, segs, ident) ->
           json_obj
             [
               ("items", string_of_int items); ("nodes", string_of_int nodes);
               ("appends", string_of_int append_rounds);
               ("insert_ms_per_append", json_f ins);
               ("maintain_ms_per_append", json_f m);
               ("rebuild_ms_per_append", json_f r); ("ratio", json_f ratio);
               ("segments", string_of_int segs); ("identical", json_b ident);
             ])
         maintenance)
  in
  let cost_json =
    json_arr
      (List.map
         (fun (qn, sel, actual, eb, ea, errb, erra) ->
           json_obj
             [
               ("query", json_s qn); ("selectivity", json_f sel);
               ("actual_bytes", string_of_int actual);
               ("est_before", string_of_int eb); ("est_after", string_of_int ea);
               ("err_before", json_f errb); ("err_after", json_f erra);
             ])
         cost_rows)
  in
  let max_nodes =
    List.fold_left (fun acc (_, _, n, _, _, _, _, _, _) -> max acc n) 0 sweep
  in
  let max_items =
    List.fold_left (fun acc (_, i, _, _, _, _, _, _, _) -> max acc i) 0 sweep
  in
  let speedup_at_max =
    List.fold_left
      (fun acc (qn, i, _, _, _, _, _, s, _) ->
        if qn = "rare-label" && i = max_items then max acc s else acc)
      0.0 sweep
  in
  let max_speedup =
    List.fold_left (fun acc (_, _, _, _, _, _, _, s, _) -> max acc s) 0.0 sweep
  in
  let ratio_max =
    List.fold_left (fun acc (_, _, _, _, _, r, _, _) -> max acc r) 0.0 maintenance
  in
  let mean f rows =
    List.fold_left (fun acc r -> acc +. f r) 0.0 rows
    /. float_of_int (max 1 (List.length rows))
  in
  write_json "BENCH_E17.json"
    (json_obj
       [
         ("experiment", json_s "E17"); ("smoke", json_b smoke);
         ("sweep", sweep_json); ("maintenance", maint_json);
         ("cost_estimate", cost_json);
         ( "summary",
           json_obj
             [
               ("max_nodes", string_of_int max_nodes);
               ("max_speedup", json_f max_speedup);
               ("speedup_rare_label_at_max_size", json_f speedup_at_max);
               ("all_outputs_identical", json_b !all_identical);
               ("maintain_vs_rebuild_ratio_max", json_f ratio_max);
               ("mean_cost_err_before",
                json_f (mean (fun (_, _, _, _, _, e, _) -> e) cost_rows));
               ("mean_cost_err_after",
                json_f (mean (fun (_, _, _, _, _, _, e) -> e) cost_rows));
               ("index_hits", string_of_int hits);
               ("fallbacks", string_of_int fallbacks);
             ] );
       ]);
  write_summary ();
  Printf.printf
    "\nwrote BENCH_E17.json and BENCH_summary.json\n\
     shape: the index pays off exactly where traversal dominated — the\n\
     rare-label speedup grows with document size and scarcity while the\n\
     candidate-bound query is flat; per-append maintenance stays roughly\n\
     constant as rebuild cost grows with the document; statistics shrink\n\
     the planner's output-size error by an order of magnitude on the\n\
     label-bound query\n"

(* --- E18: reliable delivery overhead under injected faults ------- *)

(* A chatty two-site join under a seeded lossy network (DESIGN.md §12):
   the Reliable transport must keep producing the fault-free answer at
   every drop rate, and this experiment prices that guarantee — extra
   bytes (retransmissions) and extra virtual time (retry backoff)
   relative to the drop-free run.  A Raw ablation column counts how
   often plain datagrams lose the answer under the same fault plans. *)

let e18 ?(smoke = false) () =
  section
    (if smoke then "E18  reliable delivery overhead vs drop rate (smoke)"
     else "E18  reliable delivery overhead vs drop rate");
  Printf.printf
    "workload: repeated two-site joins at p1 over catalogs stored at p2\n\
     and p3; per-link drop probability swept, faults quiet after 30s\n\
     virtual (eventual connectivity), several fault seeds per rate\n\n";
  let p1 = Net.Peer_id.of_string "p1" in
  let p2 = Net.Peer_id.of_string "p2" in
  let p3 = Net.Peer_id.of_string "p3" in
  let items = if smoke then 20 else 40 in
  let build transport =
    (* rto sized above the ~90ms ack round-trip of a catalog transfer,
       so the drop-free baseline has zero spurious retransmissions. *)
    let sys =
      System.create ~transport ~rto_ms:150.0
        (Net.Topology.full_mesh
           ~link:(Net.Link.make ~latency_ms:10.0 ~bandwidth_bytes_per_ms:100.0)
           [ p1; p2; p3 ])
    in
    List.iteri
      (fun i p ->
        let rng = Workload.Rng.create ~seed:(180 + i) in
        System.add_document sys p ~name:"cat"
          (Workload.Xml_gen.catalog ~gen:(System.gen_of sys p) ~rng ~items
             ~selectivity:0.2 ()))
      [ p2; p3 ];
    sys
  in
  let join =
    Query.Parser.parse_exn
      {|query(2) for $x in $0//item, $y in $1//item where attr($x, "category") = "wanted" and attr($y, "category") = "wanted" return <pair>{attr($x, "id")}{attr($y, "id")}</pair>|}
  in
  let plan =
    Expr.query_at join ~at:p1
      ~args:[ Expr.doc "cat" ~at:"p2"; Expr.doc "cat" ~at:"p3" ]
  in
  (* Several rounds of the join over one faulty system: more messages
     through the fault plan per trial, cumulative stats at the end. *)
  let rounds = if smoke then 2 else 4 in
  let run transport fault =
    let sys = build transport in
    Option.iter (System.inject_faults sys) fault;
    let outs =
      List.init rounds (fun i ->
          Runtime.Exec.run_to_quiescence ~reset_stats:(i = 0) sys ~ctx:p1 plan)
    in
    let elapsed =
      List.fold_left (fun a (o : Runtime.Exec.outcome) -> a +. o.elapsed_ms) 0.0 outs
    in
    (outs, elapsed, System.fingerprint sys, System.reliability_counters sys)
  in
  let ref_outs, base_ms, ref_fp, _ = run System.Reliable None in
  let ref_results = (List.hd ref_outs).Runtime.Exec.results in
  let agrees outs fp =
    List.for_all
      (fun (o : Runtime.Exec.outcome) ->
        o.finished && Xml.Canonical.equal_forest ref_results o.results)
      outs
    && String.equal ref_fp fp
  in
  let cumulative outs = (List.nth outs (rounds - 1) : Runtime.Exec.outcome).stats in
  let base_bytes = (cumulative ref_outs).bytes in
  let rates = if smoke then [ 0.0; 0.1; 0.3 ] else [ 0.0; 0.02; 0.05; 0.1; 0.2; 0.3 ] in
  let seeds = if smoke then [ 1; 2 ] else [ 1; 2; 3; 4; 5 ] in
  let fault ~drop ~seed =
    if drop = 0.0 then None
    else
      Some
        (Net.Fault.make
           ~profile:{ Net.Fault.drop; duplicate = 0.0; jitter_ms = 0.0 }
           ~quiet_after_ms:30_000.0 ~seed ())
  in
  let rows =
    List.map
      (fun drop ->
        let n = List.length seeds in
        let bytes = ref 0 and ms = ref 0.0 and rt = ref 0 and drops = ref 0 in
        let dup = ref 0 and correct = ref 0 and raw_lost = ref 0 in
        List.iter
          (fun seed ->
            let outs, elapsed, fp, rc = run System.Reliable (fault ~drop ~seed) in
            let stats = cumulative outs in
            bytes := !bytes + stats.bytes;
            ms := !ms +. elapsed;
            rt := !rt + rc.System.retransmits;
            drops := !drops + stats.drops;
            dup := !dup + rc.System.dup_suppressed;
            if agrees outs fp then incr correct;
            let outs_r, _, fp_r, _ = run System.Raw (fault ~drop ~seed) in
            if not (agrees outs_r fp_r) then incr raw_lost)
          seeds;
        let avg_bytes = float_of_int !bytes /. float_of_int n in
        let avg_ms = !ms /. float_of_int n in
        ( drop, n,
          avg_bytes, avg_bytes /. float_of_int (max base_bytes 1),
          avg_ms, avg_ms /. max base_ms 1e-6,
          float_of_int !rt /. float_of_int n,
          float_of_int !drops /. float_of_int n,
          float_of_int !dup /. float_of_int n,
          !correct, !raw_lost ))
      rates
  in
  table
    ~headers:
      [ "drop"; "bytes"; "byte ovh"; "virt ms"; "time ovh"; "retx"; "drops";
        "dup supp"; "reliable ok"; "raw lost" ]
    (List.map
       (fun (d, n, b, bo, m, mo, rt, dr, du, ok, lost) ->
         [
           Printf.sprintf "%.2f" d; Printf.sprintf "%.0f" b;
           Printf.sprintf "%.2fx" bo; Printf.sprintf "%.1f" m;
           Printf.sprintf "%.2fx" mo; Printf.sprintf "%.1f" rt;
           Printf.sprintf "%.1f" dr; Printf.sprintf "%.1f" du;
           Printf.sprintf "%d/%d" ok n; Printf.sprintf "%d/%d" lost n;
         ])
       rows);
  let all_reliable_correct =
    List.for_all (fun (_, n, _, _, _, _, _, _, _, ok, _) -> ok = n) rows
  in
  let raw_lost_total =
    List.fold_left (fun acc (_, _, _, _, _, _, _, _, _, _, l) -> acc + l) 0 rows
  in
  if not all_reliable_correct then
    Printf.printf "  !! E18 a reliable run diverged from the fault-free answer\n";
  write_json "BENCH_E18.json"
    (json_obj
       [
         ("experiment", json_s "E18"); ("smoke", json_b smoke);
         ("base_bytes", string_of_int base_bytes);
         ("base_virtual_ms", json_f base_ms);
         ("all_reliable_correct", json_b all_reliable_correct);
         ("raw_lost_runs", string_of_int raw_lost_total);
         ( "rows",
           json_arr
             (List.map
                (fun (d, n, b, bo, m, mo, rt, dr, du, ok, lost) ->
                  json_obj
                    [
                      ("drop", json_f d); ("runs", string_of_int n);
                      ("bytes_avg", json_f b); ("byte_overhead", json_f bo);
                      ("virtual_ms_avg", json_f m); ("time_overhead", json_f mo);
                      ("retransmits_avg", json_f rt); ("drops_avg", json_f dr);
                      ("dup_suppressed_avg", json_f du);
                      ("reliable_correct", string_of_int ok);
                      ("raw_lost", string_of_int lost);
                    ])
                rows) );
       ]);
  write_summary ();
  Printf.printf
    "\nwrote BENCH_E18.json and BENCH_summary.json\n\
     shape: byte and time overheads grow with the drop rate while the\n\
     reliable answer column stays full — the protocol converts loss into\n\
     latency and retransmitted bytes; the raw ablation loses the answer\n\
     at the same rates\n"

(* --- E19: batched transport ablation ----------------------------- *)

(* Coalescing ablation (DESIGN.md §13): the same chatty workloads run
   at the Reliable window's 0/0 defaults (each message shipped bare and
   acked on arrival) and with its flush/ack-delay knobs raised, and the
   delta prices what per-message envelopes and per-message acks
   cost.  Three traffic shapes: a continuous service streaming many
   tiny responses (envelope-dominated), repeated two-site joins
   (request/response traffic, where acks can ride reverse batches),
   and a double catalog fetch (identical in-flight transfers, so
   within-frame sharing — rule (13) at the transport layer — fires).
   Correctness bar: every batched run must reproduce its 0/0 twin's
   answer and final Σ fingerprint. *)

let e19 ?(smoke = false) () =
  section
    (if smoke then "E19  batched transport ablation (smoke)"
     else "E19  batched transport ablation");
  Printf.printf
    "workloads: stream (chatty continuous service), join (request/response\n\
     rounds), dup (identical concurrent transfers); each runs at the\n\
     Reliable window's defaults (flush 0/ack 0) and with batching on\n\n";
  let link = Net.Link.make ~latency_ms:10.0 ~bandwidth_bytes_per_ms:100.0 in
  (* stream: a continuous service at p2 pushing [stream_k] one-element
     responses, spaced 1ms apart, into a collector document at p1 — the
     envelope-per-message worst case the flush window exists for. *)
  let stream_k = if smoke then 15 else 40 in
  let run_stream ~flush_ms ~ack_delay_ms =
    let sys =
      System.create ~transport:System.Reliable ~response_delay_ms:1.0 ~flush_ms
        ~ack_delay_ms
        (Net.Topology.full_mesh ~link [ p1; p2 ])
    in
    System.add_service sys p2
      (Doc.Service.extern ~name:"streamer"
         ~signature:(Schema.Signature.untyped ~arity:0)
         (fun _ ->
           let g = Xml.Node_id.Gen.create ~namespace:"e19-stream" in
           List.init stream_k (fun i ->
               Xml.Tree.element_of_string ~gen:g "s"
                 [ Xml.Tree.text (string_of_int i) ])));
    let inbox =
      Xml.Tree.element_of_string
        ~gen:(Xml.Node_id.Gen.create ~namespace:"e19-inbox")
        "inbox" []
    in
    let inbox_id = Option.get (Xml.Tree.id inbox) in
    System.add_document sys p1 ~name:"collector" inbox;
    let plan =
      Expr.sc
        (Doc.Sc.make
           ~forward:[ Names.Node_ref.make ~node:inbox_id ~peer:p1 ]
           ~provider:(Names.At p2) ~service:"streamer" [])
        ~at:p1
    in
    let out = Runtime.Exec.run_to_quiescence sys ~ctx:p1 plan in
    (* The stream's answer lives in the collector document; compare the
       final Σ rather than the (empty) plan results. *)
    ( out.Runtime.Exec.results, out.Runtime.Exec.finished,
      out.Runtime.Exec.stats, System.fingerprint sys,
      System.reliability_counters sys )
  in
  let join =
    Query.Parser.parse_exn
      {|query(2) for $x in $0//item, $y in $1//item where attr($x, "category") = "wanted" and attr($y, "category") = "wanted" return <pair>{attr($x, "id")}{attr($y, "id")}</pair>|}
  in
  let items = if smoke then 15 else 30 in
  let catalog_at sys ~seed p =
    let rng = Workload.Rng.create ~seed in
    System.add_document sys p ~name:"cat"
      (Workload.Xml_gen.catalog ~gen:(System.gen_of sys p) ~rng ~items
         ~selectivity:0.2 ())
  in
  (* join: repeated two-site joins at p1 over catalogs at p2/p3 — the
     request/response shape where delayed acks piggyback. *)
  let join_rounds = if smoke then 2 else 3 in
  let run_join ~flush_ms ~ack_delay_ms =
    let sys =
      System.create ~transport:System.Reliable ~rto_ms:150.0 ~flush_ms
        ~ack_delay_ms
        (Net.Topology.full_mesh ~link [ p1; p2; p3 ])
    in
    List.iteri (fun i p -> catalog_at sys ~seed:(190 + i) p) [ p2; p3 ];
    let plan =
      Expr.query_at join ~at:p1
        ~args:[ Expr.doc "cat" ~at:"p2"; Expr.doc "cat" ~at:"p3" ]
    in
    let outs =
      List.init join_rounds (fun i ->
          Runtime.Exec.run_to_quiescence ~reset_stats:(i = 0) sys ~ctx:p1 plan)
    in
    let last = List.nth outs (join_rounds - 1) in
    ( (List.hd outs).Runtime.Exec.results,
      List.for_all (fun (o : Runtime.Exec.outcome) -> o.finished) outs,
      last.Runtime.Exec.stats, System.fingerprint sys,
      System.reliability_counters sys )
  in
  (* dup: both join inputs fetch the same catalog from p2, so two
     identical transfers are in flight in the same flush window. *)
  let run_dup ~flush_ms ~ack_delay_ms =
    let sys =
      System.create ~transport:System.Reliable ~rto_ms:150.0 ~flush_ms
        ~ack_delay_ms
        (Net.Topology.full_mesh ~link [ p1; p2 ])
    in
    catalog_at sys ~seed:191 p2;
    let fetch = Expr.send_to_peer p1 (Expr.doc "cat" ~at:"p2") in
    let plan = Expr.query_at join ~at:p1 ~args:[ fetch; fetch ] in
    let out = Runtime.Exec.run_to_quiescence sys ~ctx:p1 plan in
    ( out.Runtime.Exec.results, out.Runtime.Exec.finished,
      out.Runtime.Exec.stats, System.fingerprint sys,
      System.reliability_counters sys )
  in
  let configs = [ (0.5, 2.0); (2.0, 8.0); (5.0, 20.0) ] in
  let headline_flush, headline_ack = (2.0, 8.0) in
  let per_workload =
    List.map
      (fun (name, run) ->
        let res0, fin0, st0, fp0, rc0 = run ~flush_ms:0.0 ~ack_delay_ms:0.0 in
        if not fin0 then Printf.printf "  !! E19 %s baseline did not finish\n" name;
        let runs =
          List.map
            (fun (flush_ms, ack_delay_ms) ->
              let res, fin, st, fp, rc = run ~flush_ms ~ack_delay_ms in
              let correct =
                fin && fin0
                && Xml.Canonical.equal_forest res0 res
                && String.equal fp0 fp
              in
              (flush_ms, ack_delay_ms, st, rc, correct))
            configs
        in
        (name, st0, rc0, runs))
      [ ("stream", run_stream); ("join", run_join); ("dup", run_dup) ]
  in
  let reduction base v =
    1.0 -. (float_of_int v /. float_of_int (max 1 base))
  in
  let pct x = Printf.sprintf "%.0f%%" (x *. 100.0) in
  table
    ~headers:
      [ "workload"; "flush/ack ms"; "frames"; "logical"; "bytes"; "acks";
        "pb+del"; "dedup B"; "msg red"; "byte red"; "ok" ]
    (List.concat_map
       (fun (name, (st0 : Net.Stats.snapshot), rc0, runs) ->
         let base_row =
           [
             name; "off"; string_of_int st0.messages;
             string_of_int st0.payload_messages; string_of_int st0.bytes;
             string_of_int rc0.System.acks_sent; "-"; "-"; "-"; "-"; "yes";
           ]
         in
         base_row
         :: List.map
              (fun (f, a, (st : Net.Stats.snapshot), rc, correct) ->
                [
                  name; Printf.sprintf "%g/%g" f a; string_of_int st.messages;
                  string_of_int st.payload_messages; string_of_int st.bytes;
                  string_of_int rc.System.acks_sent;
                  string_of_int
                    (rc.System.piggybacked_acks + rc.System.delayed_acks);
                  string_of_int rc.System.dedup_shared_bytes;
                  pct (reduction st0.messages st.messages);
                  pct (reduction st0.bytes st.bytes);
                  (if correct then "yes" else "NO");
                ])
              runs)
       per_workload);
  let all_correct =
    List.for_all
      (fun (_, _, _, runs) ->
        List.for_all (fun (_, _, _, _, ok) -> ok) runs)
      per_workload
  in
  if not all_correct then
    Printf.printf "  !! E19 a batched run diverged from its 0/0 twin\n";
  (* Headline: aggregate frame/byte reduction across the three
     workloads at the default-recommended knobs. *)
  let sum f =
    List.fold_left
      (fun (base, on_) (_, (st0 : Net.Stats.snapshot), _, runs) ->
        let _, _, (st : Net.Stats.snapshot), _, _ =
          List.find (fun (fl, a, _, _, _) -> fl = headline_flush && a = headline_ack) runs
        in
        (base + f st0, on_ + f st))
      (0, 0) per_workload
  in
  let base_msgs, on_msgs = sum (fun st -> st.Net.Stats.messages) in
  let base_bytes, on_bytes = sum (fun st -> st.Net.Stats.bytes) in
  let msg_red = reduction base_msgs on_msgs in
  let byte_red = reduction base_bytes on_bytes in
  Printf.printf
    "\nheadline (flush %g / ack delay %g): %d -> %d frames (%s), %d -> %d \
     bytes (%s)\n"
    headline_flush headline_ack base_msgs on_msgs (pct msg_red) base_bytes
    on_bytes (pct byte_red);
  if msg_red < 0.30 then
    Printf.printf "  !! E19 headline message reduction below the 30%% bar\n";
  write_json "BENCH_E19.json"
    (json_obj
       [
         ("experiment", json_s "E19"); ("smoke", json_b smoke);
         ("headline_flush_ms", json_f headline_flush);
         ("headline_ack_delay_ms", json_f headline_ack);
         ("headline_message_reduction", json_f msg_red);
         ("headline_byte_reduction", json_f byte_red);
         ("meets_30pct_message_reduction", json_b (msg_red >= 0.30));
         ("all_correct", json_b all_correct);
         ( "rows",
           json_arr
             (List.concat_map
                (fun (name, (st0 : Net.Stats.snapshot), rc0, runs) ->
                  let row ~flush ~ack (st : Net.Stats.snapshot)
                      (rc : System.reliability_counters) ~msg_red ~byte_red
                      ~correct =
                    json_obj
                      [
                        ("workload", json_s name); ("flush_ms", json_f flush);
                        ("ack_delay_ms", json_f ack);
                        ("messages", string_of_int st.messages);
                        ("payload_messages", string_of_int st.payload_messages);
                        ("bytes", string_of_int st.bytes);
                        ("acks_sent", string_of_int rc.System.acks_sent);
                        ("batches_sent", string_of_int rc.System.batches_sent);
                        ("batched_messages",
                         string_of_int rc.System.batched_messages);
                        ("piggybacked_acks",
                         string_of_int rc.System.piggybacked_acks);
                        ("delayed_acks", string_of_int rc.System.delayed_acks);
                        ("dedup_shared_bytes",
                         string_of_int rc.System.dedup_shared_bytes);
                        ("message_reduction", json_f msg_red);
                        ("byte_reduction", json_f byte_red);
                        ("correct", json_b correct);
                      ]
                  in
                  row ~flush:0.0 ~ack:0.0 st0 rc0 ~msg_red:0.0 ~byte_red:0.0
                    ~correct:true
                  :: List.map
                       (fun (f, a, st, rc, correct) ->
                         row ~flush:f ~ack:a st rc
                           ~msg_red:(reduction st0.messages st.Net.Stats.messages)
                           ~byte_red:(reduction st0.bytes st.Net.Stats.bytes)
                           ~correct)
                       runs)
                per_workload) );
       ]);
  write_summary ();
  Printf.printf
    "\nwrote BENCH_E19.json and BENCH_summary.json\n\
     shape: the chatty stream collapses into a handful of frames — the\n\
     flush window removes envelopes and the ack delay removes standalone\n\
     acks (piggybacked on reverse batches where traffic flows both ways);\n\
     the dup workload additionally ships its second identical transfer\n\
     as a back-reference\n"

(* --- E20: web-scale flash crowd ------------------------------- *)

(* Pre-refactor reference points, measured with this exact scenario and
   bench code on the harness as it stood before the dense-id /
   connection-record / counter-handle / array-heap refactor (string-keyed
   Peer_id, tuple-keyed System tables, pairing-heap Pqueue, per-event
   metric hash lookups).  (peers, messages, events, wall_s,
   events_per_sec, words_per_event). *)
let e20_pre_refactor_baseline : (int * int * int * float * float * float) list
    =
  [
    (10, 9603, 14403, 0.022, 6.52e5, 109.2);
    (100, 100108, 150158, 0.382, 3.93e5, 165.0);
    (1000, 998424, 1497624, 6.773, 2.21e5, 226.2);
  ]

let e20 ?(smoke = false) () =
  section
    (if smoke then "E20  web-scale flash crowd (smoke)"
     else "E20  web-scale flash crowd");
  Printf.printf
    "scenario: 1 publisher, N mirrors behind a generic fetch class, M\n\
     subscribers arriving on a flash-crowd ramp, each running a closed\n\
     request loop (Invoke + Stream response = 2 remote messages per\n\
     request); measures events/sec, wall-clock and allocation per event\n\
     across peer-count tiers\n\n";
  (* (mirrors, subscribers, requests per subscriber): tiers of 10, 100
     and 1000 peers (publisher included), sized so the top tier delivers
     ~10^6 messages. *)
  let tiers =
    if smoke then [ (3, 6, 20); (8, 41, 20) ]
    else [ (3, 6, 800); (8, 91, 550); (24, 975, 512) ]
  in
  (* Harness GC policy: with ~10^3 concurrent requests the in-flight
     state (continuations, messages on the wire, armed timers) is
     comparable to the default 256k-word nursery, so nearly every
     in-flight object survives a minor collection and is promoted —
     the major GC then dominates the run.  A simulation-scale nursery
     keeps short-lived state out of the major heap.  Restored after
     the experiment so co-resident benches measure under defaults. *)
  let gc0 = Gc.get () in
  Gc.set { gc0 with Gc.minor_heap_size = 8 * 1024 * 1024 };
  Fun.protect ~finally:(fun () -> Gc.set gc0) @@ fun () ->
  let run_tier (mirrors, subscribers, reqs) =
    let fc =
      Workload.Scenarios.flash_crowd ~mirrors ~subscribers
        ~requests_per_subscriber:reqs ~seed:11 ()
    in
    let sys = fc.Workload.Scenarios.fc_system in
    let budget =
      (4 * fc.Workload.Scenarios.fc_requests)
      + (20 * (1 + mirrors + subscribers))
      + 10_000
    in
    Gc.compact ();
    (* [Gc.minor_words] is the precise allocation counter; the
       [quick_stat] fields are only refreshed at collection points,
       which a simulation-sized nursery may never reach. *)
    let w0 = Gc.minor_words () in
    let t0 = Sys.time () in
    let outcome, events = System.run ~max_events:budget sys in
    let wall = Sys.time () -. t0 in
    let words = Gc.minor_words () -. w0 in
    let st = System.stats sys in
    let peers = 1 + mirrors + subscribers in
    let eps = float_of_int events /. Float.max wall 1e-9 in
    let wpe = words /. Float.max (float_of_int events) 1.0 in
    let ok =
      outcome = `Quiescent
      && !(fc.Workload.Scenarios.fc_completed)
         = fc.Workload.Scenarios.fc_requests
      && !(fc.Workload.Scenarios.fc_unserved) = 0
    in
    ( peers, fc.Workload.Scenarios.fc_requests, st.Net.Stats.messages,
      st.Net.Stats.bytes, events, System.now_ms sys, wall, eps, wpe, ok )
  in
  let results = List.map run_tier tiers in
  table
    ~headers:
      [
        "peers"; "requests"; "messages"; "events"; "virtual ms"; "wall s";
        "events/s"; "words/event"; "ok";
      ]
    (List.map
       (fun (peers, reqs, msgs, _bytes, events, vms, wall, eps, wpe, ok) ->
         [
           string_of_int peers; string_of_int reqs; string_of_int msgs;
           string_of_int events;
           Printf.sprintf "%.0f" vms;
           Printf.sprintf "%.3f" wall;
           Printf.sprintf "%.3g" eps;
           Printf.sprintf "%.1f" wpe;
           (if ok then "yes" else "NO");
         ])
       results);
  let baseline_for peers =
    List.find_opt
      (fun (p, _, _, _, _, _) -> p = peers)
      e20_pre_refactor_baseline
  in
  let rows_json =
    json_arr
      (List.map
         (fun (peers, reqs, msgs, bytes, events, vms, wall, eps, wpe, ok) ->
           let speedup =
             match baseline_for peers with
             | Some (_, _, _, _, base_eps, _) when base_eps > 0.0 ->
                 eps /. base_eps
             | _ -> 0.0
           in
           json_obj
             [
               ("peers", string_of_int peers);
               ("requests", string_of_int reqs);
               ("messages", string_of_int msgs);
               ("bytes", string_of_int bytes);
               ("events", string_of_int events);
               ("completion_virtual_ms", json_f vms);
               ("wall_s", json_f wall);
               ("events_per_sec", json_f eps);
               ("words_per_event", json_f wpe);
               ("speedup_vs_pre_refactor", json_f speedup);
               ("quiescent_and_complete", json_b ok);
             ])
         results)
  in
  let baseline_json =
    json_arr
      (List.map
         (fun (peers, msgs, events, wall, eps, wpe) ->
           json_obj
             [
               ("peers", string_of_int peers);
               ("messages", string_of_int msgs);
               ("events", string_of_int events);
               ("wall_s", json_f wall);
               ("events_per_sec", json_f eps);
               ("words_per_event", json_f wpe);
             ])
         e20_pre_refactor_baseline)
  in
  write_json "BENCH_E20.json"
    (json_obj
       [
         ("experiment", json_s "E20");
         ("smoke", json_b smoke);
         ("gc_minor_heap_words", string_of_int (8 * 1024 * 1024));
         ( "baseline_source",
           json_s
             "pre-refactor harness (string-keyed Peer_id, tuple-keyed \
              System tables, pairing-heap Pqueue, per-event metric hash \
              lookups), same scenario and bench code" );
         ("pre_refactor_baseline", baseline_json);
         ("rows", rows_json);
       ]);
  write_summary ();
  Printf.printf
    "\nwrote BENCH_E20.json and BENCH_summary.json\n\
     shape: events/sec should stay flat as peer count grows — per-event\n\
     work is array-indexed, not string-hashed — and the top tier should\n\
     complete its ~10^6 messages in single-digit seconds\n"

(* --- E21: observability overhead ablation ------------------------ *)

(* Prices the telemetry stack of DESIGN.md §15 on the flash-crowd
   scenario of E20: the same tiers run with everything off, with
   cumulative metrics, with metrics + head-sampled tracing (1 in 64
   correlations), and with the full stack (+ windowed timeseries).
   Two invariants gate the design:
   - the disabled path must allocate nothing — the two "off" arms
     bracketing the instrumented ones must agree on words/event to the
     word (the E16 invariant, extended to every record site);
   - the metrics arm must stay within ~10% of the off arm's wall
     clock, and the sampled-trace arms must complete the largest tier
     (head sampling is what makes tracing viable at 10^3 peers). *)
let e21 ?(smoke = false) () =
  section
    (if smoke then "E21  observability overhead ablation (smoke)"
     else "E21  observability overhead ablation");
  Printf.printf
    "scenario: the E20 flash crowd per observability arm — off /\n\
     metrics / metrics+sampled traces (1/64) / full stack / off again;\n\
     words/event of the two off arms must agree exactly, the metrics\n\
     arm must cost <= ~10%% extra wall clock, and the sampled arms must\n\
     complete every tier\n\n";
  let tiers =
    if smoke then [ (3, 6, 20); (8, 41, 20) ]
    else [ (3, 6, 800); (8, 91, 550); (24, 975, 512) ]
  in
  (* (label, metrics, timeseries, keep-one-in; 0 = tracing off) *)
  let arms =
    [
      ("off", false, false, 0);
      ("metrics", true, false, 0);
      ("metrics+traces", true, false, 64);
      ("full", true, true, 64);
      ("off (after)", false, false, 0);
    ]
  in
  let disable_all () =
    Obs.Metrics.set_enabled Obs.Metrics.default false;
    Obs.Metrics.reset Obs.Metrics.default;
    Obs.Timeseries.set_enabled Obs.Timeseries.default false;
    Obs.Timeseries.reset Obs.Timeseries.default;
    Obs.Trace.set_enabled false;
    Obs.Trace.clear ();
    Obs.Trace.set_sampling ~seed:0 ~keep_one_in:1 ()
  in
  let gc0 = Gc.get () in
  Gc.set { gc0 with Gc.minor_heap_size = 8 * 1024 * 1024 };
  Fun.protect ~finally:(fun () ->
      disable_all ();
      Gc.set gc0)
  @@ fun () ->
  let run_arm (mirrors, subscribers, reqs) (label, metrics, ts, keep) =
    Obs.Metrics.set_enabled Obs.Metrics.default metrics;
    Obs.Metrics.reset Obs.Metrics.default;
    Obs.Timeseries.set_enabled Obs.Timeseries.default ts;
    Obs.Timeseries.reset Obs.Timeseries.default;
    if keep > 0 then begin
      Obs.Trace.set_enabled true;
      Obs.Trace.clear ();
      Obs.Trace.set_sampling ~seed:11 ~keep_one_in:keep ()
    end
    else begin
      Obs.Trace.set_enabled false;
      Obs.Trace.clear ()
    end;
    let fc =
      Workload.Scenarios.flash_crowd ~mirrors ~subscribers
        ~requests_per_subscriber:reqs ~seed:11 ()
    in
    let sys = fc.Workload.Scenarios.fc_system in
    let peers = 1 + mirrors + subscribers in
    let budget =
      (8 * fc.Workload.Scenarios.fc_requests) + (40 * peers) + 10_000
    in
    Gc.compact ();
    let w0 = Gc.minor_words () in
    let t0 = Sys.time () in
    let outcome, events = System.run ~max_events:budget sys in
    let wall = Sys.time () -. t0 in
    let words = Gc.minor_words () -. w0 in
    let ok =
      outcome = `Quiescent
      && !(fc.Workload.Scenarios.fc_completed)
         = fc.Workload.Scenarios.fc_requests
      && !(fc.Workload.Scenarios.fc_unserved) = 0
    in
    let spans = if keep > 0 then Obs.Trace.count () else 0 in
    let series = List.length (Obs.Timeseries.keys Obs.Timeseries.default) in
    disable_all ();
    ( label, peers, events, wall,
      words /. Float.max 1.0 (float_of_int events), spans, series, ok )
  in
  let checks = ref [] in
  let tier_results =
    List.map
      (fun tier ->
        let rows = List.map (run_arm tier) arms in
        let wall_of l =
          List.fold_left
            (fun acc (label, _, _, wall, _, _, _, _) ->
              if label = l then wall else acc)
            0.0 rows
        in
        let wpe_of l =
          List.fold_left
            (fun acc (label, _, _, _, wpe, _, _, _) ->
              if label = l then wpe else acc)
            0.0 rows
        in
        let peers =
          match rows with (_, p, _, _, _, _, _, _) :: _ -> p | [] -> 0
        in
        let off_wpe_agree = wpe_of "off" = wpe_of "off (after)" in
        let metrics_ratio =
          wall_of "metrics" /. Float.max 1e-9 (wall_of "off")
        in
        let all_complete =
          List.for_all (fun (_, _, _, _, _, _, _, ok) -> ok) rows
        in
        checks :=
          (peers, off_wpe_agree, metrics_ratio, all_complete) :: !checks;
        (peers, rows))
      tiers
  in
  let checks = List.rev !checks in
  List.iter
    (fun (peers, rows) ->
      Printf.printf "-- %d peers --\n" peers;
      table
        ~headers:
          [ "arm"; "events"; "wall s"; "words/event"; "spans"; "series"; "ok" ]
        (List.map
           (fun (label, _, events, wall, wpe, spans, series, ok) ->
             [
               label; string_of_int events;
               Printf.sprintf "%.3f" wall;
               Printf.sprintf "%.1f" wpe;
               string_of_int spans; string_of_int series;
               (if ok then "yes" else "NO");
             ])
           rows))
    tier_results;
  List.iter
    (fun (peers, agree, ratio, complete) ->
      if not agree then
        Printf.printf
          "  !! E21 %d peers: disabled-path words/event changed across arms\n"
          peers;
      if ratio > 1.10 then
        Printf.printf
          "  ~~ E21 %d peers: metrics arm wall ratio %.2fx (> 1.10x target; \
           wall clock is noisy at small tiers)\n"
          peers ratio;
      if not complete then
        Printf.printf "  !! E21 %d peers: an arm failed to complete\n" peers)
    checks;
  let rows_json =
    json_arr
      (List.concat_map
         (fun (peers, rows) ->
           List.map
             (fun (label, _, events, wall, wpe, spans, series, ok) ->
               json_obj
                 [
                   ("peers", string_of_int peers);
                   ("arm", json_s label);
                   ("events", string_of_int events);
                   ("wall_s", json_f wall);
                   ("words_per_event", json_f wpe);
                   ("sampled_spans", string_of_int spans);
                   ("timeseries_keys", string_of_int series);
                   ("quiescent_and_complete", json_b ok);
                 ])
             rows)
         tier_results)
  in
  let checks_json =
    json_arr
      (List.map
         (fun (peers, agree, ratio, complete) ->
           json_obj
             [
               ("peers", string_of_int peers);
               ("disabled_words_per_event_stable", json_b agree);
               ("metrics_wall_ratio", json_f ratio);
               ("all_arms_complete", json_b complete);
             ])
         checks)
  in
  write_json "BENCH_E21.json"
    (json_obj
       [
         ("experiment", json_s "E21");
         ("smoke", json_b smoke);
         ("sample_keep_one_in", string_of_int 64);
         ("rows", rows_json);
         ("checks", checks_json);
       ]);
  write_summary ();
  Printf.printf
    "\nwrote BENCH_E21.json and BENCH_summary.json\n\
     shape: words/event is identical in both off arms (the disabled\n\
     path allocates nothing), the metrics arm adds low-single-digit\n\
     percent wall, and the sampled-trace arms complete every tier with\n\
     a span count ~1/64th of a full trace\n"

(* --- E22: binary wire codec ablation ------------------------------ *)

(* Prices the compact binary wire (DESIGN.md §16) against the XML
   sizing model on the E20 flash crowd.  The headline arms run the
   batched Reliable transport (flush 2 ms, ack delay 8 ms): there every
   physical frame is sized on send and re-sized on every retransmission
   re-batch, so the wire's accounting cost is on the per-event path —
   the XML model walks per-forest memo tables per charge, the binary
   wire reads one cached frame-length integer.  Raw arms ride along as
   the floor where both wires charge once per message.  Three
   invariants gate the design:
   - the wire never changes answers: per tier and transport, the XML
     and binary arms reach the same Σ fingerprint (binary-strict, which
     round-trips every transmission through encode/decode, included);
   - binary frames are strictly smaller than the XML sizing model;
   - a relay re-batches binary frames without decoding any payload
     (Message.payload_decodes stays flat across slice + re-frame). *)
let e22 ?(smoke = false) () =
  section
    (if smoke then "E22  binary wire codec ablation (smoke)"
     else "E22  binary wire codec ablation");
  Printf.printf
    "scenario: the E20 flash crowd per wire arm — raw and batched\n\
     reliable (flush 2 ms, ack 8 ms) under the XML sizing model vs the\n\
     binary codec; per tier and transport the two wires must agree on\n\
     the final Σ while the binary wire ships smaller frames, and on the\n\
     batched arms it should cost less wall and allocation per event\n\n";
  let tiers =
    if smoke then [ (3, 6, 20); (8, 41, 20) ]
    else [ (3, 6, 800); (8, 91, 550); (24, 975, 512) ]
  in
  (* (label, transport, wire, flush_ms, ack_delay_ms) *)
  let arms =
    [
      ("raw/xml", System.Raw, System.Xml, 0.0, 0.0);
      ("raw/binary", System.Raw, System.Binary, 0.0, 0.0);
      ("batched/xml", System.Reliable, System.Xml, 2.0, 8.0);
      ("batched/binary", System.Reliable, System.Binary, 2.0, 8.0);
    ]
  in
  let gc0 = Gc.get () in
  Gc.set { gc0 with Gc.minor_heap_size = 8 * 1024 * 1024 };
  Fun.protect ~finally:(fun () -> Gc.set gc0) @@ fun () ->
  let run_arm (mirrors, subscribers, reqs) (label, transport, wire, flush, ack)
      =
    let fc =
      Workload.Scenarios.flash_crowd ~mirrors ~subscribers
        ~requests_per_subscriber:reqs ~transport ~wire ~flush_ms:flush
        ~ack_delay_ms:ack ~seed:11 ()
    in
    let sys = fc.Workload.Scenarios.fc_system in
    let peers = 1 + mirrors + subscribers in
    (* The batched arms spend ~12 events per request (flush timers,
       acks and retransmission bookkeeping on top of the request
       round trip), where E20/E21's raw arms spend ~3 — hence the
       larger multiplier. *)
    let budget =
      (16 * fc.Workload.Scenarios.fc_requests) + (40 * peers) + 10_000
    in
    Gc.compact ();
    let d0 = Runtime.Message.payload_decodes () in
    let w0 = Gc.minor_words () in
    let t0 = Sys.time () in
    let outcome, events = System.run ~max_events:budget sys in
    let wall = Sys.time () -. t0 in
    let words = Gc.minor_words () -. w0 in
    let decodes = Runtime.Message.payload_decodes () - d0 in
    let st = System.stats sys in
    let ok =
      outcome = `Quiescent
      && !(fc.Workload.Scenarios.fc_completed)
         = fc.Workload.Scenarios.fc_requests
      && !(fc.Workload.Scenarios.fc_unserved) = 0
    in
    ( label, peers, events, st.Net.Stats.messages, st.Net.Stats.bytes, wall,
      words /. Float.max 1.0 (float_of_int events), decodes,
      System.fingerprint sys, ok )
  in
  let checks = ref [] in
  let tier_results =
    List.map
      (fun tier ->
        let rows = List.map (run_arm tier) arms in
        let field f l =
          List.fold_left
            (fun acc ((label, _, _, _, _, _, _, _, _, _) as row) ->
              if label = l then f row else acc)
            (f (List.hd rows))
            rows
        in
        let fp_of l = field (fun (_, _, _, _, _, _, _, _, fp, _) -> fp) l in
        let bytes_of l = field (fun (_, _, _, _, b, _, _, _, _, _) -> b) l in
        let wall_of l = field (fun (_, _, _, _, _, w, _, _, _, _) -> w) l in
        let wpe_of l = field (fun (_, _, _, _, _, _, w, _, _, _) -> w) l in
        let peers =
          match rows with (_, p, _, _, _, _, _, _, _, _) :: _ -> p | [] -> 0
        in
        let fps_agree =
          String.equal (fp_of "raw/xml") (fp_of "raw/binary")
          && String.equal (fp_of "batched/xml") (fp_of "batched/binary")
        in
        let binary_smaller =
          bytes_of "raw/binary" < bytes_of "raw/xml"
          && bytes_of "batched/binary" < bytes_of "batched/xml"
        in
        let wall_ratio =
          wall_of "batched/binary" /. Float.max 1e-9 (wall_of "batched/xml")
        in
        let wpe_ratio =
          wpe_of "batched/binary" /. Float.max 1e-9 (wpe_of "batched/xml")
        in
        let all_complete =
          List.for_all (fun (_, _, _, _, _, _, _, _, _, ok) -> ok) rows
        in
        checks :=
          (peers, fps_agree, binary_smaller, wall_ratio, wpe_ratio,
           all_complete)
          :: !checks;
        (peers, rows))
      tiers
  in
  let checks = List.rev !checks in
  List.iter
    (fun (peers, rows) ->
      Printf.printf "-- %d peers --\n" peers;
      table
        ~headers:
          [
            "arm"; "events"; "messages"; "bytes"; "wall s"; "words/event";
            "decodes"; "ok";
          ]
        (List.map
           (fun (label, _, events, msgs, bytes, wall, wpe, decodes, _, ok) ->
             [
               label; string_of_int events; string_of_int msgs;
               string_of_int bytes;
               Printf.sprintf "%.3f" wall;
               Printf.sprintf "%.1f" wpe;
               string_of_int decodes;
               (if ok then "yes" else "NO");
             ])
           rows))
    tier_results;
  List.iter
    (fun (peers, fps, smaller, wall_r, wpe_r, complete) ->
      if not fps then
        Printf.printf "  !! E22 %d peers: wires disagree on the final Σ\n"
          peers;
      if not smaller then
        Printf.printf
          "  !! E22 %d peers: binary frames not smaller than the XML model\n"
          peers;
      if wall_r > 1.0 then
        Printf.printf
          "  ~~ E22 %d peers: batched binary wall ratio %.2fx (> 1.0x \
           target; wall clock is noisy at small tiers)\n"
          peers wall_r;
      if wpe_r > 1.0 then
        Printf.printf
          "  ~~ E22 %d peers: batched binary words/event ratio %.2fx\n" peers
          wpe_r;
      if not complete then
        Printf.printf "  !! E22 %d peers: an arm failed to complete\n" peers)
    checks;
  (* Strict-wire arm (smallest tier): every transmission crosses
     encode/decode, and lazy decode keeps payload parses bounded by the
     logical messages actually delivered. *)
  let strict_row =
    run_arm (List.hd tiers)
      ("batched/binary-strict", System.Reliable, System.Binary_strict, 2.0, 8.0)
  in
  let ( _, _, strict_events, strict_msgs, _, _, _, strict_decodes, strict_fp,
        strict_ok ) =
    strict_row
  in
  let strict_fp_agrees =
    match tier_results with
    | (_, rows) :: _ ->
        List.exists
          (fun (l, _, _, _, _, _, _, _, fp, _) ->
            l = "batched/xml" && String.equal fp strict_fp)
          rows
    | [] -> false
  in
  Printf.printf
    "\nstrict wire (smallest tier): %d events, %d payload decodes, Σ %s\n"
    strict_events strict_decodes
    (if strict_fp_agrees then "agrees" else "DIFFERS");
  (* Relay micro-check: slice and re-frame an encoded batch; the
     decode counter must not move. *)
  let relay_decodes, relay_ns =
    let g = Xml.Node_id.Gen.create ~namespace:"e22-relay" in
    let msgs =
      List.init 16 (fun i ->
          Runtime.Message.make ~seq:(i + 1)
            (Runtime.Message.Stream
               {
                 key = i;
                 forest =
                   Runtime.Message.now
                     [
                       Xml.Parser.parse_exn ~gen:g
                         (Printf.sprintf
                            "<pkg name=\"pkg%03d\"><blob>%s</blob></pkg>" i
                            (String.make 64 'x'));
                     ];
                 final = true;
               }))
    in
    let frame =
      Runtime.Codec.encode
        (Runtime.Message.make (Runtime.Message.batch ~ack:3 msgs))
    in
    let iters = if smoke then 1_000 else 20_000 in
    let d0 = Runtime.Message.payload_decodes () in
    let t0 = Sys.time () in
    for i = 1 to iters do
      match Runtime.Codec.Relay.parse_batch frame with
      | Ok (_, items) -> ignore (Runtime.Codec.Relay.rebatch ~ack:i items)
      | Error _ -> failwith "E22: relay parse failed"
    done;
    let per_op = (Sys.time () -. t0) /. float_of_int iters *. 1e9 in
    (Runtime.Message.payload_decodes () - d0, per_op)
  in
  Printf.printf
    "relay: slice + re-frame a 16-message batch, %d payload decodes, %.0f \
     ns/frame\n"
    relay_decodes relay_ns;
  let rows_json =
    json_arr
      (List.concat_map
         (fun (peers, rows) ->
           List.map
             (fun (label, _, events, msgs, bytes, wall, wpe, decodes, fp, ok)
                ->
               json_obj
                 [
                   ("peers", string_of_int peers);
                   ("arm", json_s label);
                   ("events", string_of_int events);
                   ("messages", string_of_int msgs);
                   ("bytes", string_of_int bytes);
                   ("wall_s", json_f wall);
                   ("words_per_event", json_f wpe);
                   ("payload_decodes", string_of_int decodes);
                   ("fingerprint", json_s fp);
                   ("quiescent_and_complete", json_b ok);
                 ])
             rows)
         tier_results)
  in
  let checks_json =
    json_arr
      (List.map
         (fun (peers, fps, smaller, wall_r, wpe_r, complete) ->
           json_obj
             [
               ("peers", string_of_int peers);
               ("fingerprints_agree_across_wires", json_b fps);
               ("binary_bytes_smaller", json_b smaller);
               ("batched_binary_wall_ratio", json_f wall_r);
               ("batched_binary_words_ratio", json_f wpe_r);
               ("all_arms_complete", json_b complete);
             ])
         checks)
  in
  write_json "BENCH_E22.json"
    (json_obj
       [
         ("experiment", json_s "E22");
         ("smoke", json_b smoke);
         ("rows", rows_json);
         ("checks", checks_json);
         ( "strict_wire",
           json_obj
             [
               ("events", string_of_int strict_events);
               ("messages", string_of_int strict_msgs);
               ("payload_decodes", string_of_int strict_decodes);
               ("fingerprint_agrees", json_b strict_fp_agrees);
               ("quiescent_and_complete", json_b strict_ok);
             ] );
         ( "relay",
           json_obj
             [
               ("payload_decodes", string_of_int relay_decodes);
               ("ns_per_frame", json_f relay_ns);
             ] );
       ]);
  write_summary ();
  Printf.printf
    "\nwrote BENCH_E22.json and BENCH_summary.json\n\
     shape: identical Σ per tier across wires, binary bytes well below\n\
     the XML model, batched-binary wall and words/event at or below the\n\
     batched-XML arm, and zero relay payload decodes\n"

(* --- E23: adaptive replica placement ------------------------------ *)

(* Prices the adaptive placement controller (DESIGN.md §17) against
   static placement on the hotspot workload: a handful of documents
   draw 90 % of a closed-loop read population while streaming appends
   keep them live.  Serving a read costs real CPU at the serving peer
   (0.4 cpu-ms/KB), so a static system queues at the hot owners; the
   controller watches windowed Timeseries signals, ships the hot
   documents to idle spares mid-stream and steers reads to the least
   loaded replica.  Two tiers: calm links, and a chaos tier (random
   drops/duplicates/jitter quiet by 400 ms, a 150 ms partition of a
   spare, an owner crash/restart with failover) — the same fault plan
   on both arms.  Gates:
   - every run quiesces with every read served;
   - all four runs agree on the final Σ content fingerprint — the
     controller never changes answers, even under faults;
   - the adaptive arm actually commits migrations and beats static on
     p95/p99 read latency and/or bytes (it is allowed to spend bytes:
     replication is traffic). *)

module Placement = Runtime.Placement
module Sc = Workload.Scenarios

let e23 ?(smoke = false) () =
  section
    (if smoke then "E23  adaptive replica placement (smoke)"
     else "E23  adaptive replica placement");
  Printf.printf
    "scenario: hotspot — 10%% of documents draw 90%% of a closed-loop\n\
     read population under streaming appends; static placement (seeded\n\
     random reader picks, no controller) vs adaptive (load-steered\n\
     picks + the §17 migration controller), on calm links and under a\n\
     chaos plan; Σ content must agree across all four runs while the\n\
     adaptive arm relieves the hot-owner queue\n\n";
  let owners, spares, readers, docs, reads_per_reader =
    if smoke then (4, 2, 16, 12, 10) else (6, 4, 32, 40, 50)
  in
  let appends, append_every_ms, payload_bytes =
    if smoke then (4, 10.0, 1024) else (6, 40.0, 2048)
  in
  (* Serving a read is CPU work at the serving peer; at 3 cpu-ms/KB a
     hot owner saturates under the closed-loop population, which is
     exactly the queue the controller is supposed to drain. *)
  let cpu_ms_per_kb = 3.0 in
  let hot_fraction = 0.1 and hot_share = 0.9 and seed = 11 in
  let chaos_plan (hs : Sc.hotspot) =
    (* Probabilistic faults quiet by 400 ms shape the read tails; the
       owner crash sits after the read streams drain (and past quiet +
       max retransmission backoff, 32·rto = 1280 ms — the discipline
       under which the WAL-modelled transport provably converges, see
       test_fault.ml).  A mid-stream crash would eat in-flight eval
       state — volatile by design — so it gates Σ convergence through
       failover + replica resync, not the latency table. *)
    let island = [ List.hd hs.Sc.hs_spares ] in
    let victim = List.hd hs.Sc.hs_owners in
    Net.Fault.make
      ~profile:{ Net.Fault.drop = 0.12; duplicate = 0.04; jitter_ms = 2.0 }
      ~events:
        [
          Net.Fault.Partition
            {
              island;
              window = Net.Fault.window ~from_ms:100.0 ~until_ms:250.0;
            };
          Net.Fault.Crash
            { peer = victim; at_ms = 8000.0; restart_ms = Some 8250.0 };
        ]
      ~quiet_after_ms:400.0 ~seed:23 ()
  in
  let pct l q =
    match List.sort compare l with
    | [] -> Float.nan
    | sorted ->
        let a = Array.of_list sorted in
        let n = Array.length a in
        let i = int_of_float (ceil (q *. float_of_int n)) - 1 in
        a.(max 0 (min (n - 1) i))
  in
  let run_arm ~chaos ~adaptive =
    let reg = Obs.Timeseries.default in
    if adaptive then begin
      Obs.Timeseries.set_window reg 10.0;
      Obs.Timeseries.set_enabled reg true
    end;
    Fun.protect
      ~finally:(fun () ->
        Obs.Timeseries.set_enabled reg false;
        Obs.Timeseries.set_window reg 100.0)
    @@ fun () ->
    let hs =
      Sc.hotspot ~owners ~spares ~readers ~docs ~hot_fraction ~hot_share
        ~reads_per_reader ~appends ~append_every_ms ~payload_bytes
        ~think_ms:2.0 ~arrival_window_ms:100.0 ~steered:adaptive
        ~cpu_ms_per_kb ~seed ()
    in
    let sys = hs.Sc.hs_system in
    let storage = hs.Sc.hs_owners @ hs.Sc.hs_spares in
    if chaos then ignore (Runtime.Failover.enable sys);
    let ctl =
      if adaptive then
        Some
          (Placement.enable
             ~cfg:
               {
                 Placement.default_config with
                 tick_ms = 20.0;
                 windows = 3;
                 hot_rate = 100.0;
                 migrations_per_tick = 2;
                 seed = seed + 99;
                 eligible =
                   Some (fun p -> List.exists (Net.Peer_id.equal p) storage);
               }
             sys)
      else None
    in
    if chaos then System.inject_faults sys (chaos_plan hs);
    let t0 = Sys.time () in
    let outcome, events = System.run sys in
    let wall = Sys.time () -. t0 in
    let st = System.stats sys in
    let lats = !(hs.Sc.hs_latencies) in
    let committed =
      match ctl with
      | Some c -> (Placement.stats c).Placement.s_committed
      | None -> 0
    in
    let ok =
      outcome = `Quiescent
      && !(hs.Sc.hs_completed) = hs.Sc.hs_requests
      && !(hs.Sc.hs_unserved) = 0
    in
    ( events, !(hs.Sc.hs_completed), !(hs.Sc.hs_unserved), pct lats 0.50,
      pct lats 0.95, pct lats 0.99, st.Net.Stats.messages, st.Net.Stats.bytes,
      committed, System.content_fingerprint sys, wall, ok )
  in
  let tiers = [ ("calm", false); ("chaos", true) ] in
  let arms = [ ("static", false); ("adaptive", true) ] in
  let rows =
    List.concat_map
      (fun (tier, chaos) ->
        List.map
          (fun (arm, adaptive) -> (tier, arm, run_arm ~chaos ~adaptive))
          arms)
      tiers
  in
  List.iter
    (fun (tier, _) ->
      Printf.printf "-- %s --\n" tier;
      table
        ~headers:
          [
            "arm"; "served"; "p50 ms"; "p95 ms"; "p99 ms"; "messages";
            "bytes"; "migr"; "ok";
          ]
        (List.filter_map
           (fun (t, arm, (_, served, _, p50, p95, p99, msgs, bytes, migr, _,
                          _, ok)) ->
             if t <> tier then None
             else
               Some
                 [
                   arm; string_of_int served;
                   Printf.sprintf "%.1f" p50;
                   Printf.sprintf "%.1f" p95;
                   Printf.sprintf "%.1f" p99;
                   string_of_int msgs; string_of_int bytes;
                   string_of_int migr;
                   (if ok then "yes" else "NO");
                 ])
           rows))
    tiers;
  let field tier arm f =
    List.fold_left
      (fun acc (t, a, row) -> if t = tier && a = arm then f row else acc)
      Float.nan rows
  in
  let p95_of t a = field t a (fun (_, _, _, _, p, _, _, _, _, _, _, _) -> p) in
  let p99_of t a = field t a (fun (_, _, _, _, _, p, _, _, _, _, _, _) -> p) in
  let bytes_of t a =
    field t a (fun (_, _, _, _, _, _, _, b, _, _, _, _) -> float_of_int b)
  in
  let migr_of t a =
    field t a (fun (_, _, _, _, _, _, _, _, m, _, _, _) -> float_of_int m)
  in
  let fps =
    List.map (fun (_, _, (_, _, _, _, _, _, _, _, _, fp, _, _)) -> fp) rows
  in
  let sigma_agree =
    match fps with
    | fp :: rest -> List.for_all (String.equal fp) rest
    | [] -> false
  in
  let all_ok =
    List.for_all (fun (_, _, (_, _, _, _, _, _, _, _, _, _, _, ok)) -> ok) rows
  in
  let checks =
    List.map
      (fun (tier, _) ->
        let beats =
          p95_of tier "adaptive" < p95_of tier "static"
          || p99_of tier "adaptive" < p99_of tier "static"
          || bytes_of tier "adaptive" < bytes_of tier "static"
        in
        let migrated = migr_of tier "adaptive" > 0.0 in
        (tier, beats, migrated))
      tiers
  in
  Printf.printf "\nΣ content %s across all four runs\n"
    (if sigma_agree then "agrees" else "DIFFERS");
  if not all_ok then Printf.printf "!! E23: an arm failed to complete\n";
  List.iter
    (fun (tier, beats, migrated) ->
      if not migrated then
        Printf.printf "!! E23 %s: the controller never committed a migration\n"
          tier;
      if not beats then
        Printf.printf
          "!! E23 %s: adaptive beat static on neither tail latency nor bytes\n"
          tier
      else
        Printf.printf
          "%s: adaptive p95 %.1f ms vs static %.1f ms (p99 %.1f vs %.1f), \
           %.2fx bytes, %.0f migrations\n"
          tier (p95_of tier "adaptive") (p95_of tier "static")
          (p99_of tier "adaptive") (p99_of tier "static")
          (bytes_of tier "adaptive" /. Float.max 1.0 (bytes_of tier "static"))
          (migr_of tier "adaptive"))
    checks;
  let rows_json =
    json_arr
      (List.map
         (fun (tier, arm, (events, served, unserved, p50, p95, p99, msgs,
                           bytes, migr, fp, wall, ok)) ->
           json_obj
             [
               ("tier", json_s tier);
               ("arm", json_s arm);
               ("events", string_of_int events);
               ("served", string_of_int served);
               ("unserved", string_of_int unserved);
               ("p50_ms", json_f p50);
               ("p95_ms", json_f p95);
               ("p99_ms", json_f p99);
               ("messages", string_of_int msgs);
               ("bytes", string_of_int bytes);
               ("migrations_committed", string_of_int migr);
               ("fingerprint", json_s fp);
               ("wall_s", json_f wall);
               ("quiescent_and_complete", json_b ok);
             ])
         rows)
  in
  let checks_json =
    json_arr
      (List.map
         (fun (tier, beats, migrated) ->
           json_obj
             [
               ("tier", json_s tier);
               ("adaptive_beats_static", json_b beats);
               ("controller_migrated", json_b migrated);
             ])
         checks)
  in
  write_json "BENCH_E23.json"
    (json_obj
       [
         ("experiment", json_s "E23");
         ("smoke", json_b smoke);
         ("rows", rows_json);
         ("checks", checks_json);
         ("sigma_agrees_across_runs", json_b sigma_agree);
         ("all_arms_complete", json_b all_ok);
       ]);
  write_summary ();
  Printf.printf
    "\nwrote BENCH_E23.json and BENCH_summary.json\n\
     shape: identical Σ across static/adaptive × calm/chaos, the\n\
     controller committing migrations on both tiers and pulling the\n\
     hot-owner read tail below the static arm's\n"

let e24 ?(smoke = false) () =
  section
    (if smoke then "E24  semantic result cache (smoke)"
     else "E24  semantic result cache");
  Printf.printf
    "scenario: overlap — subscribers re-issue fixed slates of\n\
     continuous queries against shared source catalogs, round after\n\
     round, with a rotating slice of the catalogs mutating between\n\
     rounds; cache-off vs cache-on (per-peer semantic cache, DESIGN.md\n\
     §18) on the same shape and seed.  The gate is byte-identical\n\
     per-request result digests and Σ content across the two arms,\n\
     with the cached arm strictly cheaper on bytes AND completion\n\n";
  let sources, subscribers, queries_per_subscriber, rounds, items =
    if smoke then (3, 8, 3, 3, 12) else (4, 24, 4, 4, 24)
  in
  let overlap_pct = 0.6 and mutate_fraction = 0.25 and seed = 24 in
  let pct l q =
    match List.sort compare l with
    | [] -> Float.nan
    | sorted ->
        let a = Array.of_list sorted in
        let n = Array.length a in
        let i = int_of_float (ceil (q *. float_of_int n)) - 1 in
        a.(max 0 (min (n - 1) i))
  in
  let run_arm ~cache =
    let ov =
      Sc.overlap ~sources ~subscribers ~queries_per_subscriber ~rounds
        ~overlap_pct ~items ~mutate_fraction ~cache ~seed ()
    in
    let sys = ov.Sc.ov_system in
    let t0 = Sys.time () in
    let outcome, events = System.run sys in
    let wall = Sys.time () -. t0 in
    let st = System.stats sys in
    let qs = System.qcache_stats sys in
    let lats = !(ov.Sc.ov_latencies) in
    let ok = outcome = `Quiescent && !(ov.Sc.ov_completed) = ov.Sc.ov_requests in
    ( events, !(ov.Sc.ov_completed), pct lats 0.50, pct lats 0.95,
      st.Net.Stats.messages, st.Net.Stats.bytes,
      st.Net.Stats.completion_ms, qs,
      List.sort String.compare !(ov.Sc.ov_digests),
      System.content_fingerprint sys, wall, ok )
  in
  let arms = [ ("cache-off", false); ("cache-on", true) ] in
  let rows = List.map (fun (arm, cache) -> (arm, run_arm ~cache)) arms in
  table
    ~headers:
      [
        "arm"; "completed"; "p50 ms"; "p95 ms"; "messages"; "bytes";
        "done ms"; "hits"; "inval"; "ok";
      ]
    (List.map
       (fun (arm, (_, completed, p50, p95, msgs, bytes, done_ms, qs, _, _,
                   _, ok)) ->
         [
           arm; string_of_int completed;
           Printf.sprintf "%.1f" p50;
           Printf.sprintf "%.1f" p95;
           string_of_int msgs; string_of_int bytes;
           Printf.sprintf "%.1f" done_ms;
           string_of_int qs.Query.Qcache.hits;
           string_of_int
             (qs.Query.Qcache.invalidations + qs.Query.Qcache.stale_drops);
           (if ok then "yes" else "NO");
         ])
       rows);
  let get arm f = f (List.assoc arm rows) in
  let digests_of (_, _, _, _, _, _, _, _, d, _, _, _) = d in
  let bytes_of (_, _, _, _, _, b, _, _, _, _, _, _) = b in
  let done_of (_, _, _, _, _, _, d, _, _, _, _, _) = d in
  let fp_of (_, _, _, _, _, _, _, _, _, fp, _, _) = fp in
  let ok_of (_, _, _, _, _, _, _, _, _, _, _, ok) = ok in
  let qs_on = get "cache-on" (fun (_, _, _, _, _, _, _, q, _, _, _, _) -> q) in
  let digests_agree =
    get "cache-off" digests_of = get "cache-on" digests_of
  in
  let sigma_agree =
    String.equal (get "cache-off" fp_of) (get "cache-on" fp_of)
  in
  let all_ok = List.for_all (fun (_, row) -> ok_of row) rows in
  let bytes_win = get "cache-on" bytes_of < get "cache-off" bytes_of in
  let completion_win = get "cache-on" done_of < get "cache-off" done_of in
  let cache_fired = qs_on.Query.Qcache.hits > 0 in
  let invalidated =
    qs_on.Query.Qcache.invalidations + qs_on.Query.Qcache.stale_drops > 0
  in
  Printf.printf "\nper-request digests %s across the arms; Σ content %s\n"
    (if digests_agree then "byte-identical" else "DIFFER")
    (if sigma_agree then "agrees" else "DIFFERS");
  if not all_ok then Printf.printf "!! E24: an arm failed to complete\n";
  if not cache_fired then Printf.printf "!! E24: the cache never hit\n";
  if not invalidated then
    Printf.printf "!! E24: the mutations never invalidated an entry\n";
  if bytes_win && completion_win then
    Printf.printf
      "cache-on: %.2fx bytes, %.2fx completion (%d hits / %d misses, %d \
       invalidations)\n"
      (float_of_int (get "cache-on" bytes_of)
      /. Float.max 1.0 (float_of_int (get "cache-off" bytes_of)))
      (get "cache-on" done_of /. Float.max 1.0 (get "cache-off" done_of))
      qs_on.Query.Qcache.hits qs_on.Query.Qcache.misses
      (qs_on.Query.Qcache.invalidations + qs_on.Query.Qcache.stale_drops)
  else
    Printf.printf
      "!! E24: cache-on was not strictly cheaper (bytes %s, completion %s)\n"
      (if bytes_win then "ok" else "NOT lower")
      (if completion_win then "ok" else "NOT lower");
  let rows_json =
    json_arr
      (List.map
         (fun (arm, (events, completed, p50, p95, msgs, bytes, done_ms, qs,
                     _, fp, wall, ok)) ->
           json_obj
             [
               ("arm", json_s arm);
               ("events", string_of_int events);
               ("completed", string_of_int completed);
               ("p50_ms", json_f p50);
               ("p95_ms", json_f p95);
               ("messages", string_of_int msgs);
               ("bytes", string_of_int bytes);
               ("completion_ms", json_f done_ms);
               ("cache_hits", string_of_int qs.Query.Qcache.hits);
               ("cache_misses", string_of_int qs.Query.Qcache.misses);
               ( "cache_invalidations",
                 string_of_int
                   (qs.Query.Qcache.invalidations
                  + qs.Query.Qcache.stale_drops) );
               ("cache_installs", string_of_int qs.Query.Qcache.installs);
               ("fingerprint", json_s fp);
               ("wall_s", json_f wall);
               ("quiescent_and_complete", json_b ok);
             ])
         rows)
  in
  write_json "BENCH_E24.json"
    (json_obj
       [
         ("experiment", json_s "E24");
         ("smoke", json_b smoke);
         ("rows", rows_json);
         ("digests_identical_across_arms", json_b digests_agree);
         ("sigma_agrees_across_arms", json_b sigma_agree);
         ("all_arms_complete", json_b all_ok);
         ("cache_hits_nonzero", json_b cache_fired);
         ("invalidation_exercised", json_b invalidated);
         ("bytes_strictly_lower", json_b bytes_win);
         ("completion_strictly_lower", json_b completion_win);
       ]);
  write_summary ();
  Printf.printf
    "\nwrote BENCH_E24.json and BENCH_summary.json\n\
     shape: identical digests and Σ across cache-off/cache-on, the\n\
     cached arm strictly lower on both bytes and completion, with\n\
     non-zero hits and exercised invalidation\n"

let all =
  [
    e1; e2; e3; e4; e5; e6; e7; e8; e9; e10; e11; e12; e13; e14; e15; e16;
    (fun () -> e17 ());
    (fun () -> e18 ());
    (fun () -> e19 ());
    (fun () -> e20 ());
    (fun () -> e21 ());
    (fun () -> e22 ());
    (fun () -> e23 ());
    (fun () -> e24 ());
  ]
