module Peer_id = Axml_net.Peer_id
module Names = Axml_doc.Names

type rewrite = { rule : string; result : Expr.t }

let pp_rewrite fmt r =
  Format.fprintf fmt "@[<hv 2>[%s]@ %a@]" r.rule Expr.pp r.result

let other_peers ~peers p = List.filter (fun p2 -> not (Peer_id.equal p2 p)) peers

(* Rule (10), left to right.  The application and its query must be
   co-located; the rewrite ships query and arguments to a delegate and
   the result back. *)
let r10_delegate ~peers expr =
  match expr with
  | Expr.Query_app { query = Expr.Q_val { q; at = qat }; args; at; _ }
    when Peer_id.equal qat at ->
      List.map
        (fun p2 ->
          {
            rule = Printf.sprintf "r10-delegate(%s)" (Peer_id.to_string p2);
            result =
              Expr.send_to_peer at
                (Expr.query_app
                   (Expr.Q_send { dest = p2; q = Expr.Q_val { q; at } })
                   ~args:(List.map (Expr.send_to_peer p2) args)
                   ~at:p2);
          })
        (other_peers ~peers at)
  | _ -> []

let r10_undelegate expr =
  match expr with
  | Expr.Send
      {
        dest = Expr.To_peer p1;
        expr =
          Expr.Query_app
            {
              query = Expr.Q_send { dest = p2; q = Expr.Q_val { q; at = qat } };
              args;
              at;
              _;
            };
        _;
      }
    when Peer_id.equal p2 at && Peer_id.equal qat p1 ->
      let unshipped =
        List.map
          (function
            | Expr.Send { dest = Expr.To_peer p; expr = arg; _ }
              when Peer_id.equal p p2 ->
                Some arg
            | _ -> None)
          args
      in
      if List.for_all Option.is_some unshipped then
        [
          {
            rule = "r10-undelegate";
            result =
              Expr.query_at q ~at:p1 ~args:(List.filter_map Fun.id unshipped);
          };
        ]
      else []
  | _ -> []

(* Rule (11): eval distributes over query composition. *)
let r11_unfold expr =
  match expr with
  | Expr.Query_app
      { query = Expr.Q_val { q = Axml_query.Ast.Compose (head, subs); at = qat };
        args;
        at;
        _;
      }
    when Peer_id.equal qat at ->
      [
        {
          rule = "r11-unfold";
          result =
            Expr.query_at (Axml_query.Ast.Flwr head) ~at
              ~args:(List.map (fun sub -> Expr.query_at sub ~at ~args) subs);
        };
      ]
  | _ -> []

let r11_fold expr =
  match expr with
  | Expr.Query_app
      {
        query = Expr.Q_val { q = Axml_query.Ast.Flwr head; at = qat };
        args;
        at;
        _;
      }
    when Peer_id.equal qat at && args <> [] ->
      let sub_parts =
        List.map
          (function
            | Expr.Query_app
                {
                  query = Expr.Q_val { q = sub; at = sat };
                  args = sub_args;
                  at = aat;
                  _;
                }
              when Peer_id.equal sat at && Peer_id.equal aat at ->
                Some (sub, sub_args)
            | _ -> None)
          args
      in
      if List.for_all Option.is_some sub_parts then
        let sub_parts = List.filter_map Fun.id sub_parts in
        match sub_parts with
        | [] -> []
        | (_, first_args) :: _
          when List.for_all
                 (fun (_, a) -> List.equal Expr.equal a first_args)
                 sub_parts ->
            let subs = List.map fst sub_parts in
            let composed = Axml_query.Ast.Compose (head, subs) in
            if Result.is_ok (Axml_query.Ast.check composed) then
              [
                {
                  rule = "r11-fold";
                  result = Expr.query_at composed ~at ~args:first_args;
                };
              ]
            else []
        | _ :: _ -> []
      else []
  | _ -> []

(* Example 1: push the selection part of a unary query next to the
   data. *)
let r11_push_selection expr =
  match expr with
  | Expr.Query_app { query = Expr.Q_val { q; at = qat }; args = [ arg ]; at; _ }
    when Peer_id.equal qat at -> (
      match (Axml_query.Compose.push_selection q, Expr.site arg) with
      | Some { outer; pushed }, Names.At data_peer
        when not (Peer_id.equal data_peer at) ->
          [
            {
              rule = "r11-push-selection";
              result =
                Expr.query_at outer ~at
                  ~args:
                    [
                      Expr.query_app
                        (Expr.Q_send
                           {
                             dest = data_peer;
                             q = Expr.Q_val { q = pushed; at };
                           })
                        ~args:[ arg ] ~at:data_peer;
                    ];
            };
          ]
      | (Some _ | None), _ -> [])
  | _ -> []

(* Rule (12), left to right: remove an intermediary stop (the relay is
   an inner send-to-peer under any outer destination). *)
let r12_skip_stop expr =
  match expr with
  | Expr.Send
      {
        dest;
        expr = Expr.Send { dest = Expr.To_peer _; expr = inner; _ };
        _;
      } ->
      [ { rule = "r12-skip-stop"; result = Expr.send dest inner } ]
  | _ -> []

(* Rule (12), right to left: data in transit may halt at a relay.  For
   multicast destinations (To_nodes, To_doc) the relay additionally
   acts as a distribution point: the source link carries the payload
   once instead of once per target. *)
let r12_add_stop ~peers expr =
  match expr with
  | Expr.Send { dest; expr = inner; _ } ->
      let src =
        match Expr.site inner with Names.At p -> Some p | Names.Any -> None
      in
      let excluded =
        match dest with
        | Expr.To_peer p2 -> [ Some p2; src ]
        | Expr.To_nodes _ | Expr.To_doc _ -> [ src ]
      in
      peers
      |> List.filter (fun p1 -> not (List.mem (Some p1) excluded))
      |> List.map (fun p1 ->
             {
               rule = Printf.sprintf "r12-add-stop(%s)" (Peer_id.to_string p1);
               result = Expr.send dest (Expr.send_to_peer p1 inner);
             })
  | _ -> []

(* Rule (13): share a repeated transfer through a materialized
   document. *)
let r13_share ~fresh expr =
  (* Candidate transfers: send(p, x) subexpressions, grouped by
     destination and payload. *)
  let rec collect acc e =
    let acc =
      match e with
      | Expr.Send { dest = Expr.To_peer p; expr = inner; _ } ->
          (p, inner) :: acc
      | _ -> acc
    in
    List.fold_left collect acc (Expr.subexpressions e)
  in
  let candidates = collect [] expr in
  let duplicated =
    List.filter
      (fun (p, inner) ->
        2
        <= List.length
             (List.filter
                (fun (p', inner') ->
                  Peer_id.equal p p' && Expr.equal inner inner')
                candidates))
      candidates
  in
  (* Deduplicate candidate groups. *)
  let groups =
    List.fold_left
      (fun acc (p, inner) ->
        if
          List.exists
            (fun (p', inner') -> Peer_id.equal p p' && Expr.equal inner inner')
            acc
        then acc
        else (p, inner) :: acc)
      [] duplicated
  in
  List.map
    (fun (p, inner) ->
      let name = fresh () in
      let doc_ref =
        Expr.doc_ref
          (Names.Doc_ref.make (Names.Doc_name.of_string name) (Names.At p))
      in
      let rec replace e =
        match e with
        | Expr.Send { dest = Expr.To_peer p'; expr = inner'; _ }
          when Peer_id.equal p p' && Expr.equal inner inner' ->
            doc_ref
        | e -> Expr.map_children replace e
      in
      {
        rule = "r13-share";
        result = Expr.shared ~name ~at:p ~value:inner ~body:(replace expr);
      })
    groups

(* Rule (14): whole-expression delegation.  Not applied to
   send(p, e)-rooted expressions: their value materializes at their
   destination and evaluates to ∅ anywhere else (definition (3)), so
   moving the evaluation site would change what the original driver
   observes.  (The paper's formulation side-steps this by re-wrapping
   the delegated result in a send; for every other expression shape our
   Eval_at's implicit result stream is exactly that send.) *)
let r14_delegate ~peers expr =
  match expr with
  | Expr.Eval_at _ | Expr.Send { dest = Expr.To_peer _; _ } -> []
  | _ ->
      let here =
        match Expr.site expr with Names.At p -> Some p | Names.Any -> None
      in
      peers
      |> List.filter (fun p1 ->
             match here with Some h -> not (Peer_id.equal p1 h) | None -> true)
      |> List.map (fun p1 ->
             {
               rule = Printf.sprintf "r14-delegate(%s)" (Peer_id.to_string p1);
               result = Expr.eval_at p1 expr;
             })

let r14_undelegate expr =
  match expr with
  | Expr.Eval_at { expr = inner; _ } ->
      [ { rule = "r14-undelegate"; result = inner } ]
  | _ -> []

(* Rule (15): an sc-rooted tree with an explicit forward list may be
   activated from any peer — results flow to fwList either way. *)
let r15_relocate_sc ~peers expr =
  match expr with
  | Expr.Sc { sc; at; _ } when sc.Axml_doc.Sc.forward <> [] ->
      List.map
        (fun p2 ->
          {
            rule = Printf.sprintf "r15-relocate-sc(%s)" (Peer_id.to_string p2);
            result = Expr.eval_at p2 (Expr.sc sc ~at:p2);
          })
        (other_peers ~peers at)
  | _ -> []

(* Rule (16): push a query over a service call — ship q to the
   provider and evaluate q over the service's implementation there,
   delivering straight to the forward list. *)
let r16_push_query_over_sc expr =
  match expr with
  | Expr.Query_app
      {
        query = Expr.Q_val { q; at = qat };
        args = [ Expr.Sc { sc; at = sc_at; _ } ];
        at;
        _;
      }
    when Peer_id.equal qat at && Peer_id.equal sc_at at -> (
      match sc.Axml_doc.Sc.provider with
      | Names.Any -> []
      | Names.At p1 ->
          (* The parameters travel once, inside the shipped plan
             (send_p→p1(parList)); after that shipping they live at the
             provider. *)
          let service_app =
            Expr.query_app
              (Expr.Q_service
                 (Names.Service_ref.make sc.Axml_doc.Sc.service (Names.At p1)))
              ~args:
                (List.map
                   (fun forest -> Expr.data_at forest ~at:p1)
                   sc.Axml_doc.Sc.params)
              ~at:p1
          in
          let pushed =
            Expr.query_app
              (Expr.Q_send { dest = p1; q = Expr.Q_val { q; at } })
              ~args:[ service_app ] ~at:p1
          in
          let result =
            match sc.Axml_doc.Sc.forward with
            | [] -> Expr.send_to_peer at pushed
            | fw -> Expr.send_to_nodes fw pushed
          in
          [ { rule = "r16-push-query-over-sc"; result } ])
  | _ -> []

let at_root ~peers ~fresh expr =
  List.concat
    [
      r10_delegate ~peers expr;
      r10_undelegate expr;
      r11_unfold expr;
      r11_fold expr;
      r11_push_selection expr;
      r12_skip_stop expr;
      r12_add_stop ~peers expr;
      r13_share ~fresh expr;
      r14_delegate ~peers expr;
      r14_undelegate expr;
      r15_relocate_sc ~peers expr;
      r16_push_query_over_sc expr;
    ]

(* Apply rules at every position: for each subexpression position,
   rewrite there and rebuild the enclosing expression. *)
let everywhere ~peers ~fresh expr =
  let rec go rebuild e =
    let here =
      List.map
        (fun r -> { r with result = rebuild r.result })
        (at_root ~peers ~fresh e)
    in
    let children = Expr.subexpressions e in
    let deeper =
      List.concat
        (List.mapi
           (fun i child ->
             let rebuild_child c =
               let j = ref (-1) in
               rebuild
                 (Expr.map_children
                    (fun k ->
                      incr j;
                      if !j = i then c else k)
                    e)
             in
             go rebuild_child child)
           children)
    in
    here @ deeper
  in
  go Fun.id expr
