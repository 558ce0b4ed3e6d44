module Trace = Axml_obs.Trace
module Metrics = Axml_obs.Metrics

type result = {
  plan : Expr.t;
  cost : Cost.t;
  search : Optimizer.result;
  queries_optimized : int;
  equal_calls : int;
  strategy : string;
}

(* Site-local layer: rewrite every embedded query.  A query value is
   evaluated at exactly one peer wherever it ends up (definition (7)
   ships it whole), and Axml_query.Optimize preserves results exactly,
   so optimizing in place is sound at any nesting depth. *)
let optimize_queries ?stats expr =
  let changed = ref 0 in
  let opt_ast q =
    let q' = Axml_query.Optimize.optimize ?stats q in
    if not (Axml_query.Ast.equal q q') then incr changed;
    q'
  in
  let rec opt_query = function
    | Expr.Q_val { q; at } -> Expr.Q_val { q = opt_ast q; at }
    | Expr.Q_service _ as q -> q
    | Expr.Q_send { dest; q } -> Expr.Q_send { dest; q = opt_query q }
  in
  let rec walk e =
    match e with
    | Expr.Query_app { query; args; at; _ } ->
        Expr.query_app (opt_query query) ~args:(List.map walk args) ~at
    | Expr.Data_at _ | Expr.Doc _ | Expr.Sc _ | Expr.Send _ | Expr.Eval_at _
    | Expr.Shared _ ->
        Expr.map_children walk e
  in
  let e' = walk expr in
  (e', !changed)

let plan ~env ~ctx ?objective ?peers ?stats strategy expr =
  (* One memo for the search and the re-estimate below, so one plan
     reads each document once. *)
  let env = Cost.memoize env in
  let metering = Metrics.is_on Metrics.default in
  let t0 = if metering then Trace.wall_ms () else 0.0 in
  let equal_before = Expr.equal_calls () in
  let search = Optimizer.optimize ~env ~ctx ?objective ?peers strategy expr in
  let equal_calls = Expr.equal_calls () - equal_before in
  let plan, queries_optimized = optimize_queries ?stats search.Optimizer.plan in
  if metering then begin
    let peer = Axml_net.Peer_id.to_string ctx in
    Metrics.incr Metrics.default ~peer ~by:equal_calls ~subsystem:"plan"
      "equal_calls";
    Metrics.incr Metrics.default ~peer ~by:queries_optimized ~subsystem:"plan"
      "queries_optimized";
    Metrics.observe Metrics.default ~peer ~subsystem:"plan" "search_ms"
      (Trace.wall_ms () -. t0)
  end;
  let cost =
    (* Query optimization cannot worsen evaluation, but it can shift
       the textual size the cost model charges for query shipping;
       re-estimate so the reported cost describes the plan we return. *)
    if queries_optimized = 0 then search.Optimizer.cost
    else Cost.of_expr env ~ctx plan
  in
  {
    plan;
    cost;
    search;
    queries_optimized;
    equal_calls;
    strategy = Optimizer.strategy_name strategy;
  }

let pp_result fmt r =
  Format.fprintf fmt
    "@[<v>strategy: %s@ initial:  %a@ searched: %a@ final:    %a@ explored %d \
     plans (%d expansions), %d Expr.equal calls@ %d embedded quer%s \
     optimized@ "
    r.strategy Cost.pp r.search.Optimizer.initial_cost Cost.pp
    r.search.Optimizer.cost Cost.pp r.cost r.search.Optimizer.explored
    r.search.Optimizer.expansions r.equal_calls r.queries_optimized
    (if r.queries_optimized = 1 then "y" else "ies");
  List.iter
    (fun (s : Optimizer.step) ->
      Format.fprintf fmt "  %s -> %a@ " s.rule Cost.pp s.cost)
    r.search.Optimizer.trace;
  Format.fprintf fmt "plan: %a@]" Expr.pp r.plan

(* Minimal JSON emission — the toolkit deliberately has no JSON
   dependency. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_cost (c : Cost.t) =
  Printf.sprintf
    {|{"bytes":%d,"messages":%d,"latency_ms":%.3f,"result_bytes":%d}|} c.bytes
    c.messages c.latency_ms c.result_bytes

let explain_json r =
  let trace =
    r.search.Optimizer.trace
    |> List.map (fun (s : Optimizer.step) ->
           Printf.sprintf {|{"rule":"%s","cost":%s}|} (json_escape s.rule)
             (json_cost s.cost))
    |> String.concat ","
  in
  Printf.sprintf
    {|{"strategy":"%s","initial_cost":%s,"search_cost":%s,"final_cost":%s,"explored":%d,"expansions":%d,"equal_calls":%d,"queries_optimized":%d,"trace":[%s],"plan":"%s"}|}
    (json_escape r.strategy)
    (json_cost r.search.Optimizer.initial_cost)
    (json_cost r.search.Optimizer.cost)
    (json_cost r.cost) r.search.Optimizer.explored r.search.Optimizer.expansions
    r.equal_calls r.queries_optimized trace
    (json_escape (Expr.to_string r.plan))
