(* Per-operator query profiling.

   Operators are the nodes of a plan expression, numbered pre-order:
   the root is 0 and the subtree rooted at an operator with id [k]
   occupies the contiguous id range [k, k + size).  The numbering is
   recomputable from an operator's id plus the expression alone, so a
   delegated sub-plan shipped to another peer needs only its own id in
   the message envelope (see {!Axml_peer.Message.t}) for both sides to
   agree on every descendant's id.

   Attribution folds the span tree of one profiled run:

   - every span carries the ambient operator id stamped at record time
     ({!Axml_obs.Trace.current_op}); spans recorded outside any
     operator inherit the nearest ancestor's id;
   - {b exclusive sim time} comes from an interval sweep over the root
     ["execute"] span: each elementary interval is attributed to the
     deepest span covering it (ties broken by span id — the later,
     deeper-opened one), so the per-operator exclusive times partition
     the root interval and sum to the root's total {e by
     construction};
   - bytes and logical messages come from the ["xfer"] spans, CPU from
     the ["deliver"] spans (whose duration is the handler's
     busy-horizon growth), index hits/fallbacks from the ["index"]
     instants the compiled query engine emits.

   Estimates are {!Axml_algebra.Cost.of_expr} per operator subtree,
   with the evaluation context threaded the way {!Exec.eval} moves
   work between peers — so the report's estimate-vs-observed columns
   close the loop opened by the planner calibration (E17). *)

module Peer_id = Axml_net.Peer_id
module Expr = Axml_algebra.Expr
module Cost = Axml_algebra.Cost
module Trace = Axml_obs.Trace
module Metrics = Axml_obs.Metrics

(* The pre-order id of child [i] of the operator [parent] whose
   children are [children]: parent + 1 + sizes of the preceding
   siblings. *)
let child_op ~parent children i =
  if parent < 0 then -1
  else
    let rec skip acc j = function
      | [] -> acc
      | c :: rest -> if j >= i then acc else skip (acc + Expr.size c) (j + 1) rest
    in
    parent + 1 + skip 0 0 children

let label expr =
  let site = function
    | Axml_doc.Names.At p -> "@" ^ Peer_id.to_string p
    | Axml_doc.Names.Any -> "@any"
  in
  match expr with
  | Expr.Data_at { at; forest; _ } ->
      Printf.sprintf "data(%dB)@%s"
        (Axml_xml.Forest.byte_size forest)
        (Peer_id.to_string at)
  | Expr.Doc { doc = r; _ } ->
      Printf.sprintf "doc %s%s"
        (Axml_doc.Names.Doc_name.to_string r.Axml_doc.Names.Doc_ref.name)
        (site r.Axml_doc.Names.Doc_ref.at)
  | Expr.Query_app { at; args; _ } ->
      Printf.sprintf "query_app/%d@%s" (List.length args)
        (Peer_id.to_string at)
  | Expr.Sc { sc; at; _ } ->
      Printf.sprintf "sc %s%s@%s"
        (Axml_doc.Names.Service_name.to_string sc.Axml_doc.Sc.service)
        (site sc.Axml_doc.Sc.provider)
        (Peer_id.to_string at)
  | Expr.Send { dest = Expr.To_peer p; _ } ->
      "send->" ^ Peer_id.to_string p
  | Expr.Send { dest = Expr.To_doc (name, p); _ } ->
      Printf.sprintf "send->doc %s@%s"
        (Axml_doc.Names.Doc_name.to_string name)
        (Peer_id.to_string p)
  | Expr.Send { dest = Expr.To_nodes targets; _ } ->
      Printf.sprintf "send->%d node(s)" (List.length targets)
  | Expr.Eval_at { at; _ } -> "eval@" ^ Peer_id.to_string at
  | Expr.Shared { name; at; _ } ->
      Printf.sprintf "shared %s@%s"
        (Axml_doc.Names.Doc_name.to_string name)
        (Peer_id.to_string at)

(* Pre-order (id, operator) listing with the evaluation context each
   operator runs under, threaded the way Exec moves work: a query
   application evaluates its arguments at its own site; eval\@p runs
   its body at p; everything else keeps the parent's context. *)
let operators ~ctx expr =
  let acc = ref [] in
  let rec go ~ctx k e =
    acc := (k, ctx, e) :: !acc;
    let child_ctx =
      match e with
      | Expr.Query_app { at; _ } | Expr.Eval_at { at; _ } -> at
      | _ -> ctx
    in
    let kids = Expr.subexpressions e in
    List.iteri (fun i c -> go ~ctx:child_ctx (child_op ~parent:k kids i) c) kids
  in
  go ~ctx 0 expr;
  List.rev !acc

(* --- attribution -------------------------------------------------- *)

type op_row = {
  op : int;
  op_label : string;
  est : Cost.t;
  excl_ms : float;  (** Exclusive sim time (partition of the root). *)
  cpu_ms : float;  (** Busy-horizon growth of deliveries. *)
  bytes : int;
  messages : int;
  index_hits : int;
  index_fallbacks : int;
  err_ratio : float;  (** |excl - est.latency| / max(est.latency, 1µs). *)
}

type report = {
  rows : op_row list;  (** One per plan operator, ascending id. *)
  root_ms : float;  (** Duration of the ["execute"] span. *)
  total_excl_ms : float;  (** Σ excl_ms — equals [root_ms] up to fp. *)
}

let sums_to_root r = Float.abs (r.total_excl_ms -. r.root_ms) <= 1e-6 *. Float.max 1.0 r.root_ms

type cell = {
  mutable c_excl : float;
  mutable c_cpu : float;
  mutable c_bytes : int;
  mutable c_msgs : int;
  mutable c_hits : int;
  mutable c_fallbacks : int;
}

let attribute (events : Trace.event list) ~n_ops =
  let cells =
    Array.init n_ops (fun _ ->
        { c_excl = 0.0; c_cpu = 0.0; c_bytes = 0; c_msgs = 0; c_hits = 0;
          c_fallbacks = 0 })
  in
  let cell op = cells.(max 0 (min (n_ops - 1) op)) in
  match
    List.find_opt
      (fun (e : Trace.event) ->
        e.Trace.kind = Trace.Span && e.Trace.cat = "exec"
        && e.Trace.name = "execute")
      events
  with
  | None -> (cells, 0.0)
  | Some root ->
      let r0 = root.Trace.ts_ms in
      let r1 = r0 +. Float.max 0.0 root.Trace.dur_ms in
      (* Effective operator and depth per event: recording order
         guarantees parents precede children. *)
      let effs = Hashtbl.create 256 and depths = Hashtbl.create 256 in
      let eff_of (e : Trace.event) =
        if e.Trace.op >= 0 then e.Trace.op
        else
          match e.Trace.parent with
          | None -> 0
          | Some p -> ( match Hashtbl.find_opt effs p with Some v -> v | None -> 0)
      in
      let depth_of (e : Trace.event) =
        match e.Trace.parent with
        | None -> 0
        | Some p -> (
            match Hashtbl.find_opt depths p with Some d -> d + 1 | None -> 0)
      in
      let spans = ref [] in
      List.iter
        (fun (e : Trace.event) ->
          let eff = eff_of e and depth = depth_of e in
          Hashtbl.replace effs e.Trace.id eff;
          Hashtbl.replace depths e.Trace.id depth;
          (match (e.Trace.kind, e.Trace.name) with
          | Trace.Span, "xfer" ->
              let c = cell eff in
              c.c_msgs <- c.c_msgs + 1;
              c.c_bytes <-
                c.c_bytes
                + (match List.assoc_opt "bytes" e.Trace.args with
                  | Some b -> ( try int_of_string b with _ -> 0)
                  | None -> 0)
          | Trace.Span, "deliver" ->
              (cell eff).c_cpu <- (cell eff).c_cpu +. Float.max 0.0 e.Trace.dur_ms
          | Trace.Instant, "index" ->
              let c = cell eff in
              let arg k =
                match List.assoc_opt k e.Trace.args with
                | Some v -> ( try int_of_string v with _ -> 0)
                | None -> 0
              in
              c.c_hits <- c.c_hits + arg "hits";
              c.c_fallbacks <- c.c_fallbacks + arg "fallbacks"
          | _ -> ());
          if e.Trace.kind = Trace.Span then begin
            (* Clamp to the root interval; a span never closed ends at
               the root's end. *)
            let t0 = Float.max r0 e.Trace.ts_ms in
            let t1 =
              if e.Trace.dur_ms < 0.0 then r1
              else Float.min r1 (e.Trace.ts_ms +. e.Trace.dur_ms)
            in
            if t1 > t0 then spans := (t0, t1, depth, e.Trace.id, eff) :: !spans
          end)
        events;
      let spans = Array.of_list !spans in
      (* Elementary-interval sweep: each slice of the root interval
         goes to the deepest covering span (tie: larger id).  The
         slices partition [r0, r1], so Σ excl = root duration. *)
      let bounds =
        Array.fold_left (fun acc (t0, t1, _, _, _) -> t0 :: t1 :: acc) [] spans
        |> List.filter (fun t -> t >= r0 && t <= r1)
        |> List.cons r0 |> List.cons r1 |> List.sort_uniq compare
        |> Array.of_list
      in
      for i = 0 to Array.length bounds - 2 do
        let a = bounds.(i) and b = bounds.(i + 1) in
        if b > a then begin
          let best = ref (-1) and best_key = ref (-1, -1) in
          Array.iteri
            (fun j (t0, t1, depth, id, _) ->
              if t0 <= a && t1 >= b && (depth, id) > !best_key then begin
                best := j;
                best_key := (depth, id)
              end)
            spans;
          if !best >= 0 then begin
            let _, _, _, _, eff = spans.(!best) in
            let c = cell eff in
            c.c_excl <- c.c_excl +. (b -. a)
          end
        end
      done;
      (cells, r1 -. r0)

let report ~env ~ctx ~events expr =
  let ops = operators ~ctx expr in
  let n_ops = Expr.size expr in
  let cells, root_ms = attribute events ~n_ops in
  let rows =
    List.map
      (fun (k, op_ctx, e) ->
        let est = Cost.of_expr env ~ctx:op_ctx e in
        let c = cells.(k) in
        let err_ratio =
          Float.abs (c.c_excl -. est.Cost.latency_ms)
          /. Float.max 1e-3 est.Cost.latency_ms
        in
        if Metrics.is_on Metrics.default then
          Metrics.observe Metrics.default ~subsystem:"profiler"
            "est_error_ratio" err_ratio;
        {
          op = k;
          op_label = label e;
          est;
          excl_ms = c.c_excl;
          cpu_ms = c.c_cpu;
          bytes = c.c_bytes;
          messages = c.c_msgs;
          index_hits = c.c_hits;
          index_fallbacks = c.c_fallbacks;
          err_ratio;
        })
      ops
  in
  let total_excl_ms =
    List.fold_left (fun acc r -> acc +. r.excl_ms) 0.0 rows
  in
  { rows; root_ms; total_excl_ms }

(* EXPLAIN ANALYZE-style rendering: planner estimates next to observed
   costs, one row per operator, indented by plan depth implicitly via
   operator ids (pre-order). *)
let pp_report fmt r =
  let headers =
    [ "op"; "operator"; "est.ms"; "obs.ms"; "cpu.ms"; "est.B"; "obs.B";
      "msgs"; "idx h/f"; "err" ]
  in
  let row_strings =
    List.map
      (fun row ->
        [
          string_of_int row.op;
          row.op_label;
          Printf.sprintf "%.3f" row.est.Cost.latency_ms;
          Printf.sprintf "%.3f" row.excl_ms;
          Printf.sprintf "%.3f" row.cpu_ms;
          string_of_int row.est.Cost.bytes;
          string_of_int row.bytes;
          string_of_int row.messages;
          Printf.sprintf "%d/%d" row.index_hits row.index_fallbacks;
          Printf.sprintf "%.2f" row.err_ratio;
        ])
      r.rows
  in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc cols -> max acc (String.length (List.nth cols i)))
          (String.length h) row_strings)
      headers
  in
  let print cols =
    List.iteri
      (fun i c ->
        let w = List.nth widths i in
        if i = 1 then Format.fprintf fmt "%-*s  " w c
        else Format.fprintf fmt "%*s  " w c)
      cols;
    Format.fprintf fmt "@."
  in
  print headers;
  print (List.map (fun w -> String.make w '-') widths);
  List.iter print row_strings;
  Format.fprintf fmt "root: %.3f ms over %d operator(s)@." r.root_ms
    (List.length r.rows);
  if sums_to_root r then
    Format.fprintf fmt "operator sim-time totals sum to root: OK (%.3f ms)@."
      r.total_excl_ms
  else
    Format.fprintf fmt
      "operator sim-time totals sum to root: MISMATCH (%.3f ms vs %.3f ms)@."
      r.total_excl_ms r.root_ms
