module Label = Axml_xml.Label
module Node_id = Axml_xml.Node_id
module Tree = Axml_xml.Tree

type crumb = {
  parent_id : Node_id.t;
  parent_label : Label.t;
  parent_attrs : (string * string) list;
  lefts : Tree.t list; (* reversed *)
  rights : Tree.t list;
}

type t = { focus : Tree.t; crumbs : crumb list }

let of_tree t = { focus = t; crumbs = [] }
let focus z = z.focus

let up z =
  match z.crumbs with
  | [] -> None
  | c :: rest ->
      let children = List.rev_append c.lefts (z.focus :: c.rights) in
      Some
        {
          focus =
            Tree.with_id c.parent_id ~attrs:c.parent_attrs c.parent_label
              children;
          crumbs = rest;
        }

let rec root z = match up z with None -> z | Some z' -> root z'
let to_tree z = (root z).focus

let down z =
  match z.focus with
  | Tree.Text _ | Tree.Element { children = []; _ } -> None
  | Tree.Element ({ children = first :: rest; _ } as e) ->
      Some
        {
          focus = first;
          crumbs =
            {
              parent_id = e.id;
              parent_label = e.label;
              parent_attrs = e.attrs;
              lefts = [];
              rights = rest;
            }
            :: z.crumbs;
        }

let left z =
  match z.crumbs with
  | { lefts = l :: ls; _ } as c :: rest ->
      Some
        { focus = l; crumbs = { c with lefts = ls; rights = z.focus :: c.rights } :: rest }
  | _ -> None

let right z =
  match z.crumbs with
  | { rights = r :: rs; _ } as c :: rest ->
      Some
        { focus = r; crumbs = { c with rights = rs; lefts = z.focus :: c.lefts } :: rest }
  | _ -> None

let replace t z = { z with focus = t }

let append_child t z =
  match z.focus with
  | Tree.Text _ -> invalid_arg "Zipper.append_child: focus is a text node"
  | Tree.Element e ->
      { z with focus = Tree.Element { e with children = e.children @ [ t ] } }

let insert_right t z =
  match z.crumbs with
  | [] -> None
  | c :: rest -> Some { z with crumbs = { c with rights = t :: c.rights } :: rest }

let delete z =
  match z.crumbs with
  | [] -> None
  | c :: rest ->
      let children = List.rev_append c.lefts c.rights in
      Some
        {
          focus =
            Tree.with_id c.parent_id ~attrs:c.parent_attrs c.parent_label
              children;
          crumbs = rest;
        }

let find_id nid z =
  let rec dfs z =
    let matches =
      match z.focus with
      | Tree.Element e -> Node_id.equal e.id nid
      | Tree.Text _ -> false
    in
    if matches then Some z
    else
      let rec try_siblings z =
        match dfs z with
        | Some hit -> Some hit
        | None -> ( match right z with None -> None | Some z' -> try_siblings z')
      in
      match down z with None -> None | Some child -> try_siblings child
  in
  dfs (root z)
