module Tree = Axml_xml.Tree

type t = { name : Names.Doc_name.t; root : Tree.t }

let make ~name root = { name = Names.Doc_name.of_string name; root }
let name d = d.name
let root d = d.root
let with_root d root = { d with root }
let calls d = Sc.find_calls d.root
let has_calls d = calls d <> []
let byte_size d = Tree.byte_size d.root
let size d = Tree.size d.root

let insert_under ~node forest d =
  Option.map (fun root -> { d with root })
    (Tree.insert_children ~under:node forest d.root)

let insert_after ~node forest d =
  Option.map (fun root -> { d with root })
    (Tree.insert_siblings ~of_:node forest d.root)

let pp fmt d =
  Format.fprintf fmt "document %a =@ %a" Names.Doc_name.pp d.name Tree.pp d.root

let to_xml_string d = Axml_xml.Serializer.to_string_pretty d.root
