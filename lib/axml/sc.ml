module Tree = Axml_xml.Tree
module Label = Axml_xml.Label
module Forest = Axml_xml.Forest

type t = {
  provider : Names.location;
  service : Names.Service_name.t;
  params : Forest.t list;
  forward : Names.Node_ref.t list;
}

let sc_label = Label.of_string "sc"
let peer_label = Label.of_string "peer"
let service_label = Label.of_string "service"
let forw_label = Label.of_string "forw"

let make ?(forward = []) ~provider ~service params =
  { provider; service = Names.Service_name.of_string service; params; forward }

let param_label i = Label.of_string (Printf.sprintf "param%d" (i + 1))

(* param<k> -> k-1, if the label is a well-formed parameter name. *)
let param_index label =
  let s = Label.to_string label in
  if String.length s > 5 && String.sub s 0 5 = "param" then
    match int_of_string_opt (String.sub s 5 (String.length s - 5)) with
    | Some k when k >= 1 -> Some (k - 1)
    | Some _ | None -> None
  else None

let to_tree ~gen sc =
  let kids =
    [
      Tree.element ~gen peer_label
        [ Tree.text (Format.asprintf "%a" Names.pp_location sc.provider) ];
      Tree.element ~gen service_label
        [ Tree.text (Names.Service_name.to_string sc.service) ];
    ]
    @ List.mapi
        (fun i forest ->
          Tree.element ~gen (param_label i) (Forest.copy ~gen forest))
        sc.params
    @ List.map
        (fun target ->
          Tree.element ~gen forw_label
            [ Tree.text (Names.Node_ref.to_string target) ])
        sc.forward
  in
  Tree.element ~gen sc_label kids

(* [to_tree]'s element, sized without building it. *)
let serialized_length sc =
  let module S = Axml_xml.Serializer in
  let text_elem label s =
    S.element_length label [] (S.escaped_length ~quot:false s)
  in
  let params =
    List.mapi
      (fun i forest ->
        S.element_length (param_label i) [] (S.forest_serialized_length forest))
      sc.params
  in
  S.element_length sc_label []
    (text_elem peer_label (Format.asprintf "%a" Names.pp_location sc.provider)
    + text_elem service_label (Names.Service_name.to_string sc.service)
    + List.fold_left ( + ) 0 params
    + List.fold_left
        (fun acc r -> acc + text_elem forw_label (Names.Node_ref.to_string r))
        0 sc.forward)

let of_element (e : Tree.element) =
  if not (Label.equal e.label sc_label) then Error "element is not labeled sc"
  else begin
    let provider = ref None
    and service = ref None
    and params = ref []
    and forward = ref [] in
    let problem = ref None in
    let set_problem msg = if !problem = None then problem := Some msg in
    List.iter
      (fun child ->
        match child with
        | Tree.Text _ -> ()
        | Tree.Element ce ->
            if Label.equal ce.label peer_label then begin
              match
                Names.location_of_string (String.trim (Tree.text_content child))
              with
              | loc -> provider := Some loc
              | exception Invalid_argument _ -> set_problem "invalid peer"
            end
            else if Label.equal ce.label service_label then begin
              match
                Names.Service_name.of_string_opt
                  (String.trim (Tree.text_content child))
              with
              | Some s -> service := Some s
              | None -> set_problem "invalid service name"
            end
            else if Label.equal ce.label forw_label then begin
              match
                Names.Node_ref.of_string (String.trim (Tree.text_content child))
              with
              | Some r -> forward := r :: !forward
              | None -> set_problem "invalid forw target"
            end
            else begin
              match param_index ce.label with
              | Some i -> params := (i, ce.children) :: !params
              | None -> ()
            end)
      e.children;
    match (!problem, !provider, !service) with
    | Some msg, _, _ -> Error msg
    | None, None, _ -> Error "sc element lacks a peer child"
    | None, _, None -> Error "sc element lacks a service child"
    | None, Some provider, Some service ->
        let params = List.sort compare !params in
        let expected = List.length params in
        let indices = List.map fst params in
        if indices <> List.init expected Fun.id then
          Error "sc parameters are not numbered consecutively from 1"
        else
          Ok
            {
              provider;
              service;
              params = List.map snd params;
              forward = List.rev !forward;
            }
  end

let is_sc = function
  | Tree.Element e -> Label.equal e.label sc_label
  | Tree.Text _ -> false

let find_calls t =
  let acc = ref [] in
  Tree.iter
    (fun node ->
      match node with
      | Tree.Element e when Label.equal e.label sc_label -> (
          match of_element e with
          | Ok sc -> acc := (e.id, sc) :: !acc
          | Error _ -> ())
      | Tree.Element _ | Tree.Text _ -> ())
    t;
  List.rev !acc

let equal a b =
  Names.location_equal a.provider b.provider
  && Names.Service_name.equal a.service b.service
  && List.equal Axml_xml.Canonical.equal_forest a.params b.params
  && List.equal Names.Node_ref.equal
       (List.sort Names.Node_ref.compare a.forward)
       (List.sort Names.Node_ref.compare b.forward)

let pp fmt sc =
  Format.fprintf fmt "sc(%a, %a, [%d params], [%s])" Names.pp_location
    sc.provider Names.Service_name.pp sc.service (List.length sc.params)
    (String.concat "; " (List.map Names.Node_ref.to_string sc.forward))
