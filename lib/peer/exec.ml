module Peer_id = Axml_net.Peer_id
module Names = Axml_doc.Names
module Tree = Axml_xml.Tree
module Forest = Axml_xml.Forest
module Expr = Axml_algebra.Expr
module Trace = Axml_obs.Trace
module Qcache = Axml_query.Qcache

let log = Logs.Src.create "axml.exec" ~doc:"AXML expression evaluation"

module Log = (val Logs.src_log log)

let site_peer ~ctx expr =
  match Expr.site expr with Names.At p -> p | Names.Any -> ctx

(* Operator attribution (profiler): when the ambient operator id is
   set (>= 0, i.e. inside {!run_profiled}), each recursion below
   re-establishes the pre-order id of the child it descends into, so
   every span and message the child causes is stamped with it.  A
   delegation that ships the {e same} operator to another peer keeps
   the ambient id (the message envelope carries it); one that ships a
   {e child} wraps the send in the child's id.  Outside profiling the
   id is -1 and [with_op_if] is a plain call. *)
let with_op_if op f = if op < 0 then f () else Trace.with_op op f

(* The id of child [i] of the ambient operator [k] whose children are
   [kids] ({!Axml_algebra.Expr.subexpressions} of the current node). *)
let sub_op k kids i = if k < 0 then -1 else Profiler.child_op ~parent:k kids i

(* Register a continuation and return its reply destination. *)
let cont_at sys ~at k =
  let key = System.fresh_key sys in
  System.set_cont sys key k;
  Message.Cont { peer = at; key }

(* Delegate an expression to another peer: its results stream to
   [replies]; completion additionally pings [ack] when given. *)
let delegate sys ~ctx ~to_ expr ~replies ~ack =
  System.send sys ~src:ctx ~dst:to_
    (Message.Eval_request { expr; replies; ack })

(* Bridge between the planner's fingerprint record and the cache's
   mirror of it (the dependency order keeps Qcache below Expr). *)
let qfp (fp : Expr.Fingerprint.t) =
  {
    Qcache.hash = fp.Expr.Fingerprint.hash;
    size = fp.Expr.Fingerprint.size;
    depth = fp.Expr.Fingerprint.depth;
  }

let has_sc_root forest = List.exists Axml_doc.Sc.is_sc forest

(* Probe-time revalidation callback: live version stamps, by name. *)
let current_version sys ~peer ~doc =
  match Peer_id.of_string_opt peer with
  | Some p -> System.doc_version sys ~peer:p ~doc
  | None -> None

(* Evaluation with the semantic cache (DESIGN.md §18) in front of the
   operational semantics: [eval] probes/fills the evaluating peer's
   cache for admissible expressions and defers to [eval_core] — the
   definitions (1)–(9) dispatcher — for the actual work.  Recursive
   calls re-enter [eval], so every admissible subexpression probes
   too, on whichever peer ends up evaluating it (delegations arrive
   through the eval hook, which also lands here). *)
let rec eval sys ~ctx (expr : Expr.t) ~(emit : System.emit) : unit =
  match (System.peer sys ctx).Peer.qcache with
  | None -> eval_core sys ~ctx expr ~emit
  | Some cache -> (
      match expr with
      | Expr.Data_at _ ->
          (* A literal is already its own result — nothing to save. *)
          eval_core sys ~ctx expr ~emit
      | _ -> (
          match Expr.cache_deps expr with
          | None -> eval_core sys ~ctx expr ~emit
          | Some deps -> eval_cached sys ~ctx cache ~fresh_deps:deps expr ~emit))

and eval_cached sys ~ctx cache ~fresh_deps expr ~emit =
  let fp = qfp (Expr.fingerprint expr) in
  let current = current_version sys in
  match Qcache.find cache ~fp ~expr ~current with
  | Some forest ->
      if Trace.sampled () then
        Trace.instant ~cat:"qcache"
          ~peer:(Peer_id.to_string ctx)
          ~ts:(System.now_ms sys)
          ~args:[ ("expr", Expr.to_string expr) ]
          "hit";
      emit (Forest.copy ~gen:(System.gen_of sys ctx) forest) ~final:true
  | None -> (
      (* Pin the dependency versions *before* evaluation: installing
         against versions read afterwards would pin a torn snapshot
         (a dep may mutate mid-stream).  At completion the pins are
         re-checked; a changed or vanished dep skips the install. *)
      let pinned =
        List.map
          (fun (p, doc) ->
            match System.doc_version sys ~peer:p ~doc with
            | Some v -> Some (Peer_id.to_string p, doc, v)
            | None -> None)
          fresh_deps
      in
      match List.exists Option.is_none pinned with
      | true -> eval_core sys ~ctx expr ~emit
      | false ->
          let pins = Array.of_list (List.filter_map Fun.id pinned) in
          let acc = ref [] in
          eval_core sys ~ctx expr ~emit:(fun forest ~final ->
              acc := !acc @ forest;
              (if final then
                 let unchanged =
                   Array.for_all
                     (fun (p, d, v) -> current ~peer:p ~doc:d = Some v)
                     pins
                 in
                 (* sc-rooted results stay out: serving them from the
                    cache would re-activate the calls (definition
                    (6)) at the wrong time. *)
                 if unchanged && not (has_sc_root !acc) then
                   Qcache.install cache ~fp ~expr ~deps:pins ~forest:!acc);
              emit forest ~final))

and eval_core sys ~ctx (expr : Expr.t) ~(emit : System.emit) : unit =
  match expr with
  | Expr.Data_at { at; _ } when not (Peer_id.equal at ctx) ->
      (* Definition (5): ask the owner to evaluate and send back. *)
      delegate sys ~ctx ~to_:at expr
        ~replies:[ cont_at sys ~at:ctx emit ]
        ~ack:None
  | Expr.Data_at { forest; _ } -> eval_local_data sys ~ctx forest ~emit
  | Expr.Doc { doc; _ } -> eval_doc sys ~ctx doc ~emit
  | Expr.Query_app { query; args; at; _ } ->
      if not (Peer_id.equal at ctx) then
        delegate sys ~ctx ~to_:at expr
          ~replies:[ cont_at sys ~at:ctx emit ]
          ~ack:None
      else eval_query_app sys ~ctx query args ~emit
  | Expr.Sc { sc; at; _ } ->
      if not (Peer_id.equal at ctx) then
        delegate sys ~ctx ~to_:at expr
          ~replies:[ cont_at sys ~at:ctx emit ]
          ~ack:None
      else eval_sc sys ~ctx sc ~emit
  | Expr.Send { dest; expr = inner; _ } -> eval_send sys ~ctx dest inner ~emit
  | Expr.Eval_at { at; expr = inner; _ } ->
      let io = sub_op (Trace.current_op ()) [ inner ] 0 in
      if Peer_id.equal at ctx then
        with_op_if io (fun () -> eval sys ~ctx inner ~emit)
      else
        (* Rule (14): ship the plan, stream the results back. *)
        with_op_if io (fun () ->
            delegate sys ~ctx ~to_:at inner
              ~replies:[ cont_at sys ~at:ctx emit ]
              ~ack:None)
  | Expr.Shared { name; at; value; body; _ } ->
      (* Rule (13): materialize [value] as a document at [at], then run
         [body].  The sequencing is the parallelism loss the paper
         notes.  Calls the send-as-document machinery directly (rather
         than synthesizing a [Send] node) so operator attribution sees
         exactly the two children the plan has: [value] and [body]. *)
      let k = Trace.current_op () in
      let kids = [ value; body ] in
      let v_op = sub_op k kids 0 and b_op = sub_op k kids 1 in
      with_op_if v_op (fun () ->
          side_effecting_send sys ~ctx
            ~src:(site_peer ~ctx value)
            value
            ~emit:(fun _ ~final ->
              if final then
                with_op_if b_op (fun () -> eval sys ~ctx body ~emit))
            ~replies:
              [
                Message.Install
                  { peer = at; name = Names.Doc_name.to_string name };
              ])

(* Definition (1)/(6) over literal data: plain trees are values;
   sc-rooted trees are activated.  Embedded (non-root) calls stay inert
   at the expression level — they activate when the data lands in a
   document (Section 2.2 semantics, handled by System.activate_call). *)
and eval_local_data sys ~ctx forest ~emit =
  let scs, plain =
    List.partition
      (fun t ->
        match t with
        | Tree.Element e -> (
            match Axml_doc.Sc.of_element e with Ok _ -> true | Error _ -> false)
        | Tree.Text _ -> false)
      forest
  in
  match scs with
  | [] -> emit forest ~final:true
  | scs ->
      if plain <> [] then emit plain ~final:false;
      let remaining = ref (List.length scs) in
      let merged forest ~final =
        if final then begin
          decr remaining;
          if !remaining = 0 then emit forest ~final:true
          else if forest <> [] then emit forest ~final:false
        end
        else emit forest ~final:false
      in
      List.iter
        (fun t ->
          match t with
          | Tree.Element e -> (
              match Axml_doc.Sc.of_element e with
              | Ok sc -> eval_sc sys ~ctx sc ~emit:merged
              | Error _ -> assert false)
          | Tree.Text _ -> assert false)
        scs

and eval_doc sys ~ctx (r : Names.Doc_ref.t) ~emit =
  match r.at with
  | Names.Any -> (
      (* Definition (9): resolve through the local pick function. *)
      let self = System.peer sys ctx in
      match
        Axml_doc.Generic.pick_doc
          ~available:(System.availability sys ~from:ctx)
          self.Peer.catalog ~policy:self.Peer.policy
          ~class_name:(Names.Doc_name.to_string r.name)
      with
      | Some resolved -> eval_doc sys ~ctx resolved ~emit
      | None ->
          Log.warn (fun m ->
              m "peer %a: no member known for generic document %a" Peer_id.pp
                ctx Names.Doc_name.pp r.name);
          emit [] ~final:true)
  | Names.At p when not (Peer_id.equal p ctx) ->
      delegate sys ~ctx ~to_:p (Expr.doc_ref r)
        ~replies:[ cont_at sys ~at:ctx emit ]
        ~ack:None
  | Names.At _ -> (
      let self = System.peer sys ctx in
      match Axml_doc.Store.find self.Peer.store r.name with
      | Some doc ->
          (* Serving a document read is real work: charge the copy at
             the owner so a hot replica queues behind its own CPU
             (the latency signal placement steers on). *)
          System.consume_cpu sys ~peer:ctx
            ~bytes:(Axml_doc.Document.byte_size doc);
          emit
            [ Tree.copy ~gen:self.Peer.gen (Axml_doc.Document.root doc) ]
            ~final:true
      | None ->
          Log.warn (fun m ->
              m "peer %a: unknown document %a" Peer_id.pp ctx Names.Doc_name.pp
                r.name);
          emit [] ~final:true)

(* Resolve the query value of an application running at [ctx]; the
   continuation receives the AST once any shipping has happened. *)
and resolve_query sys ~ctx (q : Expr.query_expr) (k : Axml_query.Ast.t option -> unit) =
  match q with
  | Expr.Q_val { q; at } when Peer_id.equal at ctx -> k (Some q)
  | Expr.Q_val { q; at } ->
      (* Definition (7): the query travels to the evaluation site. *)
      let dest = cont_at sys ~at:ctx (fun _ ~final:_ -> k (Some q)) in
      let key = match dest with Message.Cont { key; _ } -> key | _ -> assert false in
      System.send sys ~src:at ~dst:ctx (Message.Query_shipped { key; query = q })
  | Expr.Q_service r -> (
      match r.at with
      | Names.Any -> (
          let self = System.peer sys ctx in
          match
            Axml_doc.Generic.pick_service
              ~available:(System.availability sys ~from:ctx)
              self.Peer.catalog ~policy:self.Peer.policy
              ~class_name:(Names.Service_name.to_string r.name)
          with
          | Some resolved -> resolve_query sys ~ctx (Expr.Q_service resolved) k
          | None -> k None)
      | Names.At p ->
          let query =
            Axml_doc.Registry.visible_query (System.peer sys p).Peer.registry
              r.name
          in
          (match query with
          | None ->
              Log.warn (fun m ->
                  m "service %a has no visible query" Names.Service_ref.pp r);
              k None
          | Some ast ->
              if Peer_id.equal p ctx then k (Some ast)
              else
                let dest =
                  cont_at sys ~at:ctx (fun _ ~final:_ -> k (Some ast))
                in
                let key =
                  match dest with
                  | Message.Cont { key; _ } -> key
                  | _ -> assert false
                in
                System.send sys ~src:p ~dst:ctx
                  (Message.Query_shipped { key; query = ast })))
  | Expr.Q_send { dest; q = inner } ->
      (* Definition (8): deploy at [dest] as a new service, then use
         it.  The query travels home → dest. *)
      let home =
        match Expr.query_site inner with Names.At p -> p | Names.Any -> ctx
      in
      let ast_of_inner kont =
        match inner with
        | Expr.Q_val { q; _ } -> kont (Some q)
        | Expr.Q_service r -> (
            match r.at with
            | Names.At p ->
                kont
                  (Axml_doc.Registry.visible_query
                     (System.peer sys p).Peer.registry r.name)
            | Names.Any -> kont None)
        | Expr.Q_send _ -> resolve_query sys ~ctx inner kont
      in
      ast_of_inner (fun ast ->
          match ast with
          | None -> k None
          | Some ast ->
              let reply =
                cont_at sys ~at:ctx (fun _ ~final:_ -> k (Some ast))
              in
              System.send sys ~src:home ~dst:dest
                (Message.Deploy { prefix = "_tmp_shipped"; query = ast; reply }))

and eval_query_app sys ~ctx query args ~emit =
  (* Captured now: the resolution continuation may fire during a later
     delivery, under that message's ambient operator. *)
  let k = Trace.current_op () in
  resolve_query sys ~ctx query (fun ast ->
      match ast with
      | None -> emit [] ~final:true
      | Some q ->
          let arity = Axml_query.Ast.arity q in
          if arity <> List.length args then begin
            Log.err (fun m ->
                m "peer %a: query arity %d but %d arguments" Peer_id.pp ctx
                  arity (List.length args));
            emit [] ~final:true
          end
          else if arity = 0 then begin
            let gen = System.gen_of sys ctx in
            emit (Axml_query.Compile.eval ~gen q []) ~final:true
          end
          else begin
            (* Definition (2) with streams: each argument batch is
               pushed into the incremental state; deltas flow out as
               they are enabled. *)
            let state = Axml_query.Incremental.create q in
            let gen = System.gen_of sys ctx in
            let open_args = ref (List.length args) in
            let push i forest ~final =
              let bytes = Forest.byte_size forest in
              if bytes > 0 then System.consume_cpu sys ~peer:ctx ~bytes;
              let delta =
                Axml_query.Incremental.push_forest ~gen state ~input:i forest
              in
              if final then begin
                decr open_args;
                if !open_args = 0 then emit delta ~final:true
                else if delta <> [] then emit delta ~final:false
              end
              else if delta <> [] then emit delta ~final:false
            in
            List.iteri
              (fun i arg ->
                with_op_if (sub_op k args i) (fun () ->
                    eval sys ~ctx arg ~emit:(push i)))
              args
          end)

and eval_sc sys ~ctx (sc : Axml_doc.Sc.t) ~emit =
  let self = System.peer sys ctx in
  let params = List.map (Forest.copy ~gen:self.Peer.gen) sc.params in
  let invoke provider service =
    let replies, finish_now =
      match sc.forward with
      | [] -> ([ cont_at sys ~at:ctx emit ], false)
      | fw -> (List.map (fun r -> Message.Node r) fw, true)
    in
    System.send sys ~src:ctx ~dst:provider
      (Message.Invoke { service; params; replies });
    (* With an explicit forward list nothing returns to the caller:
       the expression's own value is ∅ (definition (6)). *)
    if finish_now then emit [] ~final:true
  in
  match sc.provider with
  | Names.At provider -> invoke provider sc.service
  | Names.Any -> (
      match
        Axml_doc.Generic.pick_service
          ~available:(System.availability sys ~from:ctx)
          self.Peer.catalog ~policy:self.Peer.policy
          ~class_name:(Names.Service_name.to_string sc.service)
      with
      | Some { Names.Service_ref.name; at = Names.At provider } ->
          invoke provider name
      | Some { at = Names.Any; _ } | None ->
          Log.warn (fun m ->
              m "peer %a: cannot resolve generic service %a" Peer_id.pp ctx
                Names.Service_name.pp sc.service);
          emit [] ~final:true)

and eval_send sys ~ctx dest inner ~emit =
  let src = site_peer ~ctx inner in
  let io = sub_op (Trace.current_op ()) [ inner ] 0 in
  match dest with
  | Expr.To_peer p ->
      if not (Peer_id.equal ctx p) then begin
        (* The value materializes at p, not here: the driver observes
           ∅ once the transfer completes (definition (3) — evaluating
           a send returns the empty result at the evaluation site).
           The whole [Send] operator ships, so the ambient operator id
           travels unchanged. *)
        let key = System.fresh_key sys in
        System.set_cont sys key (fun _ ~final ->
            if final then emit [] ~final:true);
        delegate sys ~ctx ~to_:p (Expr.send dest inner) ~replies:[]
          ~ack:(Some (ctx, key))
      end
      else if not (Peer_id.equal src ctx) then
        (* Definitions (3)+(5): the operand's home evaluates and sends
           the copy here. *)
        with_op_if io (fun () ->
            delegate sys ~ctx ~to_:src inner
              ~replies:[ cont_at sys ~at:ctx emit ]
              ~ack:None)
      else with_op_if io (fun () -> eval sys ~ctx inner ~emit)
  | Expr.To_nodes targets ->
      with_op_if io (fun () ->
          side_effecting_send sys ~ctx ~src inner ~emit
            ~replies:(List.map (fun r -> Message.Node r) targets))
  | Expr.To_doc (name, p) ->
      with_op_if io (fun () ->
          side_effecting_send sys ~ctx ~src inner ~emit
            ~replies:
              [
                Message.Install
                  { peer = p; name = Names.Doc_name.to_string name };
              ])

(* Common machinery of send-to-nodes and send-as-document: batches flow
   to the destinations, which acknowledge the final one after applying
   it; the driver's ∅ result closes only when every destination has
   acknowledged — so "finished" really means the side effects are in
   place. *)
and side_effecting_send sys ~ctx ~src inner ~emit ~replies =
  match replies with
  | [] -> emit [] ~final:true
  | _ :: _ ->
      let key = System.fresh_key sys in
      System.set_cont ~expected_finals:(List.length replies) sys key
        (fun _ ~final -> if final then emit [] ~final:true);
      let ack = Some (ctx, key) in
      if not (Peer_id.equal src ctx) then
        delegate sys ~ctx ~to_:src inner ~replies ~ack
      else
        eval sys ~ctx inner ~emit:(fun forest ~final ->
            List.iter
              (fun dest ->
                System.route ?notify:(if final then ack else None) sys
                  ~src:ctx dest forest ~final)
              replies)

type outcome = {
  results : Forest.t;
  finished : bool;
  stats : Axml_net.Stats.snapshot;
  elapsed_ms : float;
  termination : Axml_net.Sim.outcome;
  events : int;
}

let run_to_quiescence ?(reset_stats = true) ?max_events sys ~ctx expr =
  if reset_stats then System.reset_stats sys;
  let start = System.now_ms sys in
  let acc = ref [] in
  let finished = ref false in
  (* One correlation id for the whole logical computation: the initial
     sends below carry it, every peer's dispatch re-establishes it,
     so each hop's spans — on any peer — share it. *)
  let go () =
    let sid =
      if Trace.sampled () then
        Trace.begin_span ~cat:"exec"
          ~peer:(Axml_net.Peer_id.to_string ctx)
          ~ts:start
          ~args:[ ("expr", Format.asprintf "%a" Expr.pp expr) ]
          "execute"
      else Trace.null
    in
    eval sys ~ctx expr ~emit:(fun forest ~final ->
        acc := !acc @ forest;
        if final then finished := true);
    let termination, events = System.run ?max_events sys in
    (* SLO breach: the divergence guard cut the run short — whatever
       the caller was waiting for never finished. *)
    (match termination with
    | `Budget_exhausted when Trace.sampled () ->
        Trace.instant ~cat:"slo"
          ~peer:(Axml_net.Peer_id.to_string ctx)
          ~ts:(System.now_ms sys)
          ~args:[ ("events", string_of_int events) ]
          "budget_exhausted"
    | `Budget_exhausted | `Quiescent -> ());
    let stats = System.stats sys in
    (* Completion covers trailing local computation (busy horizons),
       not just the last message delivery. *)
    let finish = max (System.now_ms sys) stats.Axml_net.Stats.completion_ms in
    Trace.end_span sid ~ts:finish;
    {
      results = !acc;
      finished = !finished;
      stats;
      elapsed_ms = finish -. start;
      termination;
      events;
    }
  in
  if Trace.enabled () then Trace.with_corr (Trace.fresh_corr ()) go else go ()

(* Cross-plan rule (13): rewrite every subplan matching a live cache
   entry into a literal read of the cached forest.  Probes run with
   hit/miss accounting suppressed ([Qcache.probe]) because a missed
   subplan is probed again by [eval] — only the hits, whose subtrees
   [eval] never sees, are recorded here. *)
let apply_qcache_rewrites sys ~ctx plan =
  match (System.peer sys ctx).Peer.qcache with
  | None -> (plan, 0)
  | Some cache ->
      let current = current_version sys in
      let gen = System.gen_of sys ctx in
      let hits = ref 0 in
      let rec go e =
        match e with
        | Expr.Data_at _ -> e
        | _ -> (
            match Expr.cache_deps e with
            | None -> Expr.map_children go e
            | Some _ -> (
                let fp = qfp (Expr.fingerprint e) in
                match Qcache.probe cache ~fp ~expr:e ~current with
                | Some forest ->
                    incr hits;
                    Qcache.record_hit cache;
                    if Trace.sampled () then
                      Trace.instant ~cat:"qcache"
                        ~peer:(Peer_id.to_string ctx)
                        ~ts:(System.now_ms sys)
                        ~args:[ ("expr", Expr.to_string e) ]
                        "plan_rewrite";
                    Expr.data_at (Forest.copy ~gen forest) ~at:ctx
                | None -> Expr.map_children go e))
      in
      let plan = go plan in
      (plan, !hits)

let run_optimized ?reset_stats ?max_events
    ?(strategy = Axml_algebra.Optimizer.Best_first { max_expansions = 32 })
    ?objective ?stats sys ~ctx expr =
  let env = System.cost_env sys in
  let wall0 = Trace.wall_ms () in
  let planned =
    Axml_algebra.Planner.plan ~env ~ctx ?objective ?stats strategy expr
  in
  let rewritten, qcache_rewrites =
    apply_qcache_rewrites sys ~ctx planned.Axml_algebra.Planner.plan
  in
  let planned =
    if qcache_rewrites = 0 then planned
    else { planned with Axml_algebra.Planner.plan = rewritten }
  in
  (* The optimize phase consumes no virtual time; its span sits at the
     current virtual timestamp with the wall-clock planning duration,
     so optimize-vs-execute shares show up side by side in the trace. *)
  if Trace.enabled () then
    Trace.complete ~cat:"plan"
      ~peer:(Axml_net.Peer_id.to_string ctx)
      ~ts:(System.now_ms sys)
      ~dur_ms:(Trace.wall_ms () -. wall0)
      ~args:
        [
          ("strategy", planned.Axml_algebra.Planner.strategy);
          ( "explored",
            string_of_int
              planned.Axml_algebra.Planner.search.Axml_algebra.Optimizer.explored
          );
          ("qcache_rewrites", string_of_int qcache_rewrites);
        ]
      "optimize";
  ( planned,
    run_to_quiescence ?reset_stats ?max_events sys ~ctx
      planned.Axml_algebra.Planner.plan )

type profiled = { outcome : outcome; report : Profiler.report }

(* EXPLAIN ANALYZE: run the plan under forced full tracing (enabled,
   sampling 1-in-1 — both restored afterwards) with the root operator
   id 0 ambient, slice the events this run recorded, and fold them
   back onto the plan's operators next to the planner's estimates. *)
let run_profiled ?reset_stats ?max_events sys ~ctx expr =
  let was_enabled = Trace.enabled () in
  let seed, keep = Trace.sampling () in
  Trace.set_enabled true;
  Trace.set_sampling ~seed ~keep_one_in:1 ();
  let mark = Trace.count () in
  let outcome =
    Fun.protect
      ~finally:(fun () ->
        Trace.set_sampling ~seed ~keep_one_in:keep ();
        Trace.set_enabled was_enabled)
      (fun () ->
        Trace.with_op 0 (fun () ->
            run_to_quiescence ?reset_stats ?max_events sys ~ctx expr))
  in
  let events = List.filteri (fun i _ -> i >= mark) (Trace.events ()) in
  let report = Profiler.report ~env:(System.cost_env sys) ~ctx ~events expr in
  { outcome; report }

let () = System.set_eval_hook (fun sys ~ctx expr ~emit -> eval sys ~ctx expr ~emit)
