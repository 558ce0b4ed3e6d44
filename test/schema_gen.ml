module Rng = Axml_workload.Rng
module Schema = Axml_schema.Schema
module Cm = Axml_schema.Content_model
module Tree = Axml_xml.Tree
module Label = Axml_xml.Label

let random_text rng =
  String.init (3 + Rng.int rng 8) (fun _ -> Char.chr (Char.code 'a' + Rng.int rng 26))

(* Expand a content model into a list of atoms to instantiate,
   choosing alternatives and repetition counts randomly. *)
let rec expand ~rng ~max_star (model : Cm.t) : Cm.atom list =
  match model with
  | Cm.Empty ->
      (* No word exists; caller detects the impossibility through a
         distinguished exception. *)
      raise_notrace Exit
  | Cm.Epsilon -> []
  | Cm.Atom a -> [ a ]
  | Cm.Seq (a, b) -> expand ~rng ~max_star a @ expand ~rng ~max_star b
  | Cm.Alt (a, b) -> (
      (* Prefer a side that can produce a word; try both orders. *)
      let first, second = if Rng.bool rng then (a, b) else (b, a) in
      match expand ~rng ~max_star first with
      | atoms -> atoms
      | exception Exit -> expand ~rng ~max_star second)
  | Cm.Star inner ->
      List.concat
        (List.init (Rng.int rng (max_star + 1)) (fun _ ->
             try expand ~rng ~max_star inner with Exit -> []))
  | Cm.Plus inner ->
      let head = expand ~rng ~max_star inner in
      head
      @ List.concat
          (List.init (Rng.int rng max_star) (fun _ ->
               try expand ~rng ~max_star inner with Exit -> []))
  | Cm.Opt inner -> (
      if Rng.bool rng then []
      else try expand ~rng ~max_star inner with Exit -> [])

let rec tree_of_type ~schema ~gen ~rng ~max_star ~depth type_name =
  if depth <= 0 then None
  else if type_name = Schema.any_type_name then
    Some
      (Tree.element ~gen (Label.of_string "any")
         [ Tree.text (random_text rng) ])
  else
    match Schema.find schema type_name with
    | None -> None
    | Some d -> (
        match expand ~rng ~max_star d.Schema.content with
        | exception Exit -> None
        | atoms ->
            let children =
              List.fold_left
                (fun acc atom ->
                  match acc with
                  | None -> None
                  | Some kids -> (
                      match atom with
                      | Cm.Text -> Some (kids @ [ Tree.text (random_text rng) ])
                      | Cm.Wildcard ->
                          Some
                            (kids
                            @ [
                                Tree.element ~gen (Label.of_string "any")
                                  [ Tree.text (random_text rng) ];
                              ])
                      | Cm.Ref name -> (
                          match
                            tree_of_type ~schema ~gen ~rng ~max_star
                              ~depth:(depth - 1) name
                          with
                          | Some t -> Some (kids @ [ t ])
                          | None -> None)))
                (Some []) atoms
            in
            (match children with
            | None -> None
            | Some kids ->
                let kids =
                  if d.Schema.mixed && Rng.bool rng then
                    Tree.text (random_text rng) :: kids
                  else kids
                in
                let attrs =
                  List.map
                    (fun (rule : Schema.attr_rule) ->
                      (rule.attr_name, random_text rng))
                    d.Schema.attributes
                in
                Some (Tree.element ~gen ~attrs d.Schema.elt_label kids)))

let tree ~schema ~type_name ~gen ~rng ?(max_depth = 12) ?(max_star = 2) () =
  tree_of_type ~schema ~gen ~rng ~max_star ~depth:max_depth type_name

let forest ~schema ~type_names ~gen ~rng () =
  List.fold_left
    (fun acc ty ->
      match acc with
      | None -> None
      | Some ts -> (
          match tree ~schema ~type_name:ty ~gen ~rng () with
          | Some t -> Some (ts @ [ t ])
          | None -> None))
    (Some []) type_names
