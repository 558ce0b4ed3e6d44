module Trace = Axml_obs.Trace
module Metrics = Axml_obs.Metrics

type strategy = Best_first of { max_expansions : int }

type step = { rule : string; cost : Cost.t }

type result = {
  plan : Expr.t;
  cost : Cost.t;
  initial_cost : Cost.t;
  explored : int;
  expansions : int;
  trace : step list;
}

let strategy_name (Best_first { max_expansions }) =
  Printf.sprintf "best-first(expansions=%d)" max_expansions

(* Auxiliary materializations introduced by rules (10) and (13) need
   fresh names.  Deriving the name from the *parent* expression's
   fingerprint (rather than a search-global counter) makes the name a
   function of the rewrite performed, not of the order in which the
   search happened to visit plans — so any search reconstructs the
   same plan for the same rewrite path, and re-running an optimization
   is reproducible.  The "_tmp" prefix keeps them out of the runtime's
   Σ fingerprint (System.fingerprint). *)
let fresh_for parent =
  let h = (Expr.fingerprint parent).Expr.Fingerprint.hash land 0xFFFFFF in
  let k = ref 0 in
  fun () ->
    incr k;
    Printf.sprintf "_tmp_s%06x_%d" h !k

let rewrites ~peers e = Rewrite.everywhere ~peers ~fresh:(fresh_for e) e

(* The visited set over plans: candidates bucketed by
   {!Expr.fingerprint}, the full structural {!Expr.equal} run only
   against same-fingerprint bucket members.  [add seen e] is true when
   [e] was not seen before (and records it). *)
let add seen e =
  let fp = Expr.fingerprint e in
  let bucket =
    Option.value ~default:[] (Hashtbl.find_opt seen fp.Expr.Fingerprint.hash)
  in
  if
    List.exists
      (fun (fp', e') -> Expr.Fingerprint.equal fp fp' && Expr.equal e e')
      bucket
  then false
  else begin
    Hashtbl.replace seen fp.Expr.Fingerprint.hash ((fp, e) :: bucket);
    true
  end

let default_objective c = Cost.weighted c

let optimize ~env ~ctx ?(objective = default_objective) ?peers
    (Best_first { max_expansions }) expr =
  let peers =
    match peers with
    | Some ps -> ps
    | None -> Axml_net.Topology.peers env.Cost.topology
  in
  (* Every candidate is priced over the same documents: read each
     once per call. *)
  let env = Cost.memoize env in
  let cost_of e = Cost.of_expr env ~ctx e in
  let initial_cost = cost_of expr in
  let explored = ref 1 in
  let expansions = ref 0 in
  (* Paths accumulate reversed (cons per step); reversed once when a
     result is built — the seed's [trace @ [step]] was quadratic. *)
  let finish (plan, cost, rev_trace) =
    let r =
      {
        plan;
        cost;
        initial_cost;
        explored = !explored;
        expansions = !expansions;
        trace = List.rev rev_trace;
      }
    in
    (* Observability: one instant per accepted rewrite step of the
       winning plan, tagged with the rule that produced it (the
       search's causal record, on the planner's wall clock), plus
       search-volume counters. *)
    (if Trace.enabled () then
       let peer = Axml_net.Peer_id.to_string ctx in
       List.iter
         (fun (s : step) ->
           Trace.instant
             ~args:
               [
                 ("cost_bytes", string_of_int s.cost.Cost.bytes);
                 ("cost_messages", string_of_int s.cost.Cost.messages);
               ]
             ~cat:"rewrite" ~peer ~ts:(Trace.wall_ms ()) s.rule)
         r.trace);
    if Metrics.is_on Metrics.default then begin
      let peer = Axml_net.Peer_id.to_string ctx in
      Metrics.incr Metrics.default ~peer ~by:r.explored ~subsystem:"plan"
        "explored";
      Metrics.incr Metrics.default ~peer ~by:r.expansions ~subsystem:"plan"
        "expansions";
      Metrics.incr Metrics.default ~peer ~by:(List.length r.trace)
        ~subsystem:"plan" "rewrite_steps"
    end;
    r
  in
  (* Cheapest-first search on the cost objective: pop the best
     unexpanded plan, generate its rewrites, push the unseen ones.
     The priority queue is the simulator's pairing heap
     ({!Axml_net.Pqueue}); insertion order breaks objective ties,
     which keeps runs deterministic.

     Pure cheapest-first starves on this rewrite system: rules like
     (14) with the evaluating peer itself are cost-neutral, so the
     closure contains unbounded plateaus at the current minimum, and a
     marginally costlier plan whose children hold the real optimum is
     never popped no matter the budget.  Each queue entry therefore
     carries a slack counter — reset on strict improvement over the
     parent, decremented on plateau or uphill steps — and chains that
     fail to improve for [plateau_limit] consecutive steps are not
     re-enqueued (their costs still count toward the best plan
     found). *)
  let plateau_limit = 4 in
  let seen = Hashtbl.create 64 in
  ignore (add seen expr);
  let queue = Axml_net.Pqueue.create () in
  Axml_net.Pqueue.push queue
    ~time:(objective initial_cost)
    (expr, initial_cost, [], plateau_limit);
  let best = ref (expr, initial_cost, []) in
  let continue = ref true in
  while !continue && !expansions < max_expansions do
    match Axml_net.Pqueue.pop queue with
    | None -> continue := false
    | Some (_, (e, e_cost, rev_path, slack)) ->
        incr expansions;
        List.iter
          (fun (r : Rewrite.rewrite) ->
            if add seen r.result then begin
              incr explored;
              let c = cost_of r.result in
              let rev_path = { rule = r.rule; cost = c } :: rev_path in
              let _, best_c, _ = !best in
              if objective c < objective best_c then
                best := (r.result, c, rev_path);
              let slack =
                if objective c < objective e_cost then plateau_limit
                else slack - 1
              in
              if slack >= 0 then
                Axml_net.Pqueue.push queue ~time:(objective c)
                  (r.result, c, rev_path, slack)
            end)
          (rewrites ~peers e)
  done;
  finish !best

let pp_result fmt r =
  Format.fprintf fmt
    "@[<v>initial: %a@ best:    %a@ explored %d plans (%d expansions), %d \
     rewrite steps@ "
    Cost.pp r.initial_cost Cost.pp r.cost r.explored r.expansions
    (List.length r.trace);
  List.iter
    (fun s -> Format.fprintf fmt "  %s -> %a@ " s.rule Cost.pp s.cost)
    r.trace;
  Format.fprintf fmt "plan: %a@]" Expr.pp r.plan
