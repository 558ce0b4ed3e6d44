module Tree = Axml_xml.Tree
module Label = Axml_xml.Label
module Forest = Axml_xml.Forest

type estimate = { cardinality : int; bytes : int }

let oracle ~gen q inputs =
  let out = Eval.eval ~gen q inputs in
  { cardinality = List.length out; bytes = Forest.byte_size out }

module Stats = struct
  module Lmap = Map.Make (Label)

  type t = {
    counts : int Lmap.t;
    bytes : int Lmap.t;  (** Total subtree bytes per label. *)
    total_nodes : int;
    total_bytes : int;
  }

  let of_label_stats stats ~total_nodes ~total_bytes =
    let counts, bytes =
      List.fold_left
        (fun (c, b) (l, n, sub) -> (Lmap.add l n c, Lmap.add l sub b))
        (Lmap.empty, Lmap.empty) stats
    in
    { counts; bytes; total_nodes; total_bytes }

  (* One walk: each element's subtree bytes are summed bottom-up from
     its children's, by {!Tree.byte_size}'s formula — the same pass
     {!Axml_xml.Index} makes when it builds. *)
  let of_forest f =
    let per_label : (Label.t, int * int) Hashtbl.t = Hashtbl.create 16 in
    let nodes = ref 0 in
    let rec walk t =
      incr nodes;
      match t with
      | Tree.Text s -> String.length s
      | Tree.Element e ->
          let kids = List.fold_left (fun acc c -> acc + walk c) 0 e.children in
          let attrs =
            List.fold_left
              (fun acc (k, v) -> acc + String.length k + String.length v + 4)
              0 e.attrs
          in
          let tag = String.length (Label.to_string e.label) in
          let sub = (2 * tag) + 5 + attrs + kids in
          let c, b =
            Option.value ~default:(0, 0) (Hashtbl.find_opt per_label e.label)
          in
          Hashtbl.replace per_label e.label (c + 1, b + sub);
          sub
    in
    let total_bytes = List.fold_left (fun acc t -> acc + walk t) 0 f in
    of_label_stats
      (Hashtbl.fold (fun l (c, b) acc -> (l, c, b) :: acc) per_label [])
      ~total_nodes:!nodes ~total_bytes

  let of_index ix =
    of_label_stats
      (Axml_xml.Index.label_stats ix)
      ~total_nodes:(Axml_xml.Index.total_nodes ix)
      ~total_bytes:(Axml_xml.Index.total_bytes ix)

  let label_count t l = Option.value ~default:0 (Lmap.find_opt l t.counts)

  let avg_bytes t l =
    let n = label_count t l in
    if n = 0 then 0 else Option.value ~default:0 (Lmap.find_opt l t.bytes) / n

  let labels t =
    Lmap.fold (fun l n acc -> (l, n, Lmap.find l t.bytes) :: acc) t.counts []
    |> List.rev

  let total_nodes t = t.total_nodes
  let total_bytes t = t.total_bytes
end

let eq_selectivity = 0.1
let range_selectivity = 0.33

let pred_factor pred =
  let rec factor = function
    | Ast.True -> 1.0
    | Ast.Cmp (_, (Ast.Eq | Ast.Neq), _) -> eq_selectivity
    | Ast.Cmp (_, (Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Contains), _) ->
        range_selectivity
    | Ast.Exists _ -> 0.5
    | Ast.And (a, b) -> factor a *. factor b
    | Ast.Or (a, b) -> min 1.0 (factor a +. factor b)
    | Ast.Not p -> max 0.0 (1.0 -. factor p)
  in
  factor pred

(* Estimated number of nodes a path step reaches, per source node, from
   label statistics: a named step reaches (count of that label) spread
   over the source cardinality; a wildcard reaches the average fanout. *)
let path_estimate (stats : Stats.t) path start_card =
  List.fold_left
    (fun card (step : Ast.step) ->
      match step.test with
      | Ast.Name l -> min (float_of_int (Stats.label_count stats l)) (card *. float_of_int (max 1 (Stats.label_count stats l)))
      | Ast.Any_elt ->
          card *. (float_of_int (Stats.total_nodes stats) /. 10.0 |> max 1.0))
    start_card path

let rec last_label = function
  | [] -> None
  | [ (step : Ast.step) ] -> (
      match step.test with Ast.Name l -> Some l | Ast.Any_elt -> None)
  | _ :: rest -> last_label rest

let sketch_flwr (q : Ast.flwr) (stats : Stats.t list) =
  let stats = Array.of_list stats in
  let stat_for (b : Ast.binding) =
    match b.source with
    | Ast.Input i when i < Array.length stats -> Some stats.(i)
    | Ast.Input _ | Ast.Var _ -> None
  in
  let card =
    List.fold_left
      (fun acc b ->
        match stat_for b with
        | Some st -> acc *. max 1.0 (path_estimate st b.path 1.0)
        | None ->
            (* Variable-rooted bindings fan out modestly. *)
            acc *. 2.0)
      1.0 q.bindings
  in
  let card = card *. pred_factor q.where in
  (* Output bytes: constructed literal shell plus, for each copied
     variable, the average subtree size of the label its binding path
     ends with. *)
  let copied_bytes =
    List.fold_left
      (fun acc v ->
        let binding =
          List.find_opt (fun (b : Ast.binding) -> b.var = v) q.bindings
        in
        match binding with
        | None -> acc
        | Some b -> (
            match (stat_for b, last_label b.path) with
            | Some st, Some l -> acc + max 16 (Stats.avg_bytes st l)
            | Some st, None -> acc + (Stats.total_bytes st / max 1 (Stats.total_nodes st))
            | None, _ -> acc + 64))
      0
      (Ast.construct_vars q.return_)
  in
  let per_result = 32 + copied_bytes in
  {
    cardinality = int_of_float (Float.round card);
    bytes = int_of_float (Float.round (card *. float_of_int per_result));
  }

let rec sketch (q : Ast.t) stats =
  match q with
  | Ast.Flwr f -> sketch_flwr f stats
  | Ast.Compose (head, subs) ->
      let intermediates = List.map (fun sub -> sketch sub stats) subs in
      (* Build synthetic stats for intermediates: we only know their
         size; approximate with a flat one-label forest. *)
      let synth (e : estimate) =
        let f =
          if e.cardinality <= 0 then []
          else
            let gen = Axml_xml.Node_id.Gen.create ~namespace:"sketch" in
            let payload =
              String.make (max 1 (e.bytes / max 1 e.cardinality)) 'x'
            in
            List.init (min e.cardinality 64) (fun _ ->
                Tree.element ~gen (Label.of_string "item") [ Tree.text payload ])
        in
        Stats.of_forest f
      in
      sketch_flwr head (List.map synth intermediates)
