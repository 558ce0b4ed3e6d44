module Peer_id = Axml_net.Peer_id
module Topology = Axml_net.Topology
module Link = Axml_net.Link
module Names = Axml_doc.Names
module Tree = Axml_xml.Tree

type env = {
  topology : Topology.t;
  doc_bytes : Names.Doc_ref.t -> int;
  doc_stats : Names.Doc_ref.t -> Axml_query.Selectivity.Stats.t option;
  service_query : Names.Service_ref.t -> Axml_query.Ast.t option;
  query_out_bytes : Axml_query.Ast.t -> int list -> int;
  cpu_ms_per_kb : float;
  cpu_factor : Peer_id.t -> float;
}

let default_env ?(cpu_ms_per_kb = 0.01) ?(cpu_factor = fun _ -> 1.0)
    ?(doc_bytes = fun _ -> 4096) ?(doc_stats = fun _ -> None)
    ?(service_query = fun _ -> None)
    ?(query_out_bytes = fun _q inputs -> List.fold_left ( + ) 0 inputs / 5)
    topology =
  {
    topology;
    doc_bytes;
    doc_stats;
    service_query;
    query_out_bytes;
    cpu_ms_per_kb;
    cpu_factor;
  }

(* [f] behind a table: each distinct key is passed to [f] once.  A
   search prices every candidate over the same few [Doc] leaves, so
   the last few keys are recognized physically before the table hashes
   and compares them structurally. *)
let recent_keys = 4

let memo f =
  let tbl = Hashtbl.create 8 in
  let recent = ref [] in
  fun k ->
    match List.assq_opt k !recent with
    | Some v -> v
    | None ->
        let v =
          match Hashtbl.find_opt tbl k with
          | Some v -> v
          | None ->
              let v = f k in
              Hashtbl.add tbl k v;
              v
        in
        recent :=
          (k, v) :: List.filteri (fun i _ -> i < recent_keys - 1) !recent;
        v

let memoize env =
  { env with doc_bytes = memo env.doc_bytes; doc_stats = memo env.doc_stats }

type t = {
  bytes : int;
  messages : int;
  latency_ms : float;
  result_bytes : int;
}

let zero = { bytes = 0; messages = 0; latency_ms = 0.0; result_bytes = 0 }

let pp fmt c =
  Format.fprintf fmt "{bytes=%d; msgs=%d; latency=%.2fms; result=%dB}" c.bytes
    c.messages c.latency_ms c.result_bytes

let dominates a b =
  a.bytes <= b.bytes && a.messages <= b.messages
  && a.latency_ms <= b.latency_ms

let weighted ?(bytes_weight = 0.5) ?(latency_weight = 0.5) c =
  (bytes_weight *. float_of_int c.bytes)
  +. (latency_weight *. c.latency_ms *. 100.0)

(* Sequential composition: latencies add, volumes add; the result size
   of the second stage wins. *)
let seq a b =
  {
    bytes = a.bytes + b.bytes;
    messages = a.messages + b.messages;
    latency_ms = a.latency_ms +. b.latency_ms;
    result_bytes = b.result_bytes;
  }

(* Parallel composition: volumes add, latency is the critical path. *)
let par a b =
  {
    bytes = a.bytes + b.bytes;
    messages = a.messages + b.messages;
    latency_ms = max a.latency_ms b.latency_ms;
    result_bytes = a.result_bytes + b.result_bytes;
  }

let transfer env ~src ~dst ~bytes =
  if Peer_id.equal src dst then { zero with result_bytes = bytes }
  else
    let link = Topology.link env.topology ~src ~dst in
    {
      bytes;
      messages = 1;
      latency_ms = Link.transfer_ms link ~bytes;
      result_bytes = bytes;
    }

let cpu env ~peer ~bytes =
  {
    zero with
    latency_ms =
      env.cpu_ms_per_kb *. env.cpu_factor peer
      *. (float_of_int bytes /. 1024.0);
  }

let site_peer ~ctx expr =
  match Expr.site expr with Names.At p -> p | Names.Any -> ctx

(* Resolve the query of an application: its textual size, the peer
   where the value initially lives, and its AST when visible. *)
let rec query_info env = function
  | Expr.Q_val { q; at } -> (Expr_xml.query_text_bytes q, at, Some q)
  | Expr.Q_service r ->
      let q = env.service_query r in
      let bytes =
        match q with Some q -> Expr_xml.query_text_bytes q | None -> 256
      in
      let at =
        match r.Names.Service_ref.at with
        | Names.At p -> Some p
        | Names.Any -> None
      in
      (bytes, Option.value ~default:(Peer_id.of_string "unknown") at, q)
  | Expr.Q_send { dest; q } ->
      let _, _, ast = query_info env q in
      (match ast with
      | Some ast -> (Expr_xml.query_text_bytes ast, dest, Some ast)
      | None -> (256, dest, None))

let rec of_expr env ~ctx expr =
  match expr with
  | Expr.Data_at { forest; _ } ->
      { zero with result_bytes = Axml_xml.Forest.byte_size forest }
  | Expr.Doc { doc; _ } -> { zero with result_bytes = env.doc_bytes doc }
  | Expr.Query_app { query; args; at; _ } ->
      (* Ship the query value to [at] if it lives elsewhere. *)
      let q_bytes, q_at, q_ast = query_info env query in
      let q_cost = transfer env ~src:q_at ~dst:at ~bytes:q_bytes in
      (* Arguments evaluate in parallel, each followed by its shipping
         to [at]. *)
      let arg_cost =
        List.fold_left
          (fun acc arg ->
            let c = of_expr env ~ctx:at arg in
            let src = site_peer ~ctx:at arg in
            let shipped =
              seq c (transfer env ~src ~dst:at ~bytes:c.result_bytes)
            in
            par acc shipped)
          zero args
      in
      let input_bytes = arg_cost.result_bytes in
      (* When every argument is a named document whose statistics the
         environment knows (index-backed label histograms), estimate
         the output from the query's actual shape instead of a flat
         input fraction. *)
      let stats_estimate =
        match q_ast with
        | None -> None
        | Some q ->
            if args = [] then None
            else
              let stats =
                List.map
                  (function
                    | Expr.Doc { doc; _ } -> env.doc_stats doc | _ -> None)
                  args
              in
              if List.for_all Option.is_some stats then
                let (e : Axml_query.Selectivity.estimate) =
                  Axml_query.Selectivity.sketch q (List.filter_map Fun.id stats)
                in
                Some e.Axml_query.Selectivity.bytes
              else None
      in
      let out_bytes =
        match (stats_estimate, q_ast) with
        | Some b, _ -> b
        | None, Some q ->
            env.query_out_bytes q
              (List.map (fun _ -> input_bytes / max 1 (List.length args)) args)
        | None, None -> input_bytes / 5
      in
      let compute = cpu env ~peer:at ~bytes:input_bytes in
      {
        (seq (par q_cost arg_cost) compute) with
        result_bytes = out_bytes;
      }
  | Expr.Sc { sc; at; _ } -> (
      match sc.Axml_doc.Sc.provider with
      | Names.Any ->
          (* Unresolved generic service: charge as if provided
             locally. *)
          let payload =
            List.fold_left
              (fun acc f -> acc + Axml_xml.Forest.byte_size f)
              0 sc.Axml_doc.Sc.params
          in
          { (cpu env ~peer:ctx ~bytes:payload) with result_bytes = payload / 5 }
      | Names.At provider ->
          let payload =
            List.fold_left
              (fun acc f -> acc + Axml_xml.Forest.byte_size f)
              0 sc.Axml_doc.Sc.params
          in
          (* Step 1: params travel to the provider. *)
          let ship_params = transfer env ~src:at ~dst:provider ~bytes:payload in
          let q_ast =
            env.service_query
              (Names.Service_ref.make sc.Axml_doc.Sc.service
                 (Names.At provider))
          in
          let out_bytes =
            match q_ast with
            | Some q -> env.query_out_bytes q [ payload ]
            | None -> payload / 5
          in
          let compute = cpu env ~peer:provider ~bytes:payload in
          (* Steps 2-3: responses travel to the forward targets (or
             back to the caller by default). *)
          let targets =
            match sc.Axml_doc.Sc.forward with
            | [] -> [ at ]
            | fw -> List.map (fun (r : Names.Node_ref.t) -> r.peer) fw
          in
          let deliver =
            List.fold_left
              (fun acc dst ->
                par acc (transfer env ~src:provider ~dst ~bytes:out_bytes))
              zero targets
          in
          {
            (seq (seq ship_params compute) deliver) with
            result_bytes = out_bytes;
          })
  | Expr.Send { dest; expr; _ } -> (
      let inner = of_expr env ~ctx expr in
      let src = site_peer ~ctx expr in
      match dest with
      | Expr.To_peer p ->
          seq inner (transfer env ~src ~dst:p ~bytes:inner.result_bytes)
      | Expr.To_doc (_, p) ->
          {
            (seq inner (transfer env ~src ~dst:p ~bytes:inner.result_bytes)) with
            result_bytes = 0;
          }
      | Expr.To_nodes targets ->
          let deliver =
            List.fold_left
              (fun acc (r : Names.Node_ref.t) ->
                par acc
                  (transfer env ~src ~dst:r.peer ~bytes:inner.result_bytes))
              zero targets
          in
          { (seq inner deliver) with result_bytes = 0 })
  | Expr.Eval_at { at; expr; _ } ->
      (* Ship the plan itself to the delegate, then evaluate there. *)
      let plan_bytes = Expr_xml.byte_size expr in
      let ship_plan = transfer env ~src:ctx ~dst:at ~bytes:plan_bytes in
      seq ship_plan (of_expr env ~ctx:at expr)
  | Expr.Shared { at; value; body; _ } ->
      (* Materialization sequences value before body — rule (13)'s
         parallelism loss shows up as added latency here. *)
      let value_cost = of_expr env ~ctx value in
      let src = site_peer ~ctx value in
      let install =
        transfer env ~src ~dst:at ~bytes:value_cost.result_bytes
      in
      let body_cost = of_expr env ~ctx body in
      seq (seq value_cost install) body_cost
