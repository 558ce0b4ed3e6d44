module Tree = Axml_xml.Tree
module Label = Axml_xml.Label
module Names = Axml_doc.Names
module Peer_id = Axml_net.Peer_id

let l = Label.of_string

(* Element labels of the encoding. *)
let l_tree = l "e-data"
let l_doc = l "e-doc"
let l_apply = l "e-apply"
let l_sc = l "e-sc"
let l_send = l "e-send"
let l_eval = l "e-eval"
let l_shared = l "e-share"
let l_value = l "value"
let l_body = l "body"
let l_q_val = l "q-val"
let l_q_service = l "q-service"
let l_q_send = l "q-send"
let l_args = l "args"

(* Attribute lists shared by the encoder and {!byte_size}. *)
let at_attr p = [ ("at", Peer_id.to_string p) ]

let dest_attrs = function
  | Expr.To_peer p -> [ ("kind", "peer"); ("peer", Peer_id.to_string p) ]
  | Expr.To_nodes targets ->
      [
        ("kind", "nodes");
        ( "nodes",
          String.concat ";" (List.map Names.Node_ref.to_string targets) );
      ]
  | Expr.To_doc (d, p) ->
      [
        ("kind", "doc");
        ("doc", Names.Doc_name.to_string d);
        ("peer", Peer_id.to_string p);
      ]

let shared_attrs name at =
  [ ("name", Names.Doc_name.to_string name); ("at", Peer_id.to_string at) ]

let rec to_tree ~gen (e : Expr.t) =
  match e with
  | Expr.Data_at { forest; at; _ } ->
      Tree.element ~gen l_tree ~attrs:(at_attr at)
        (Axml_xml.Forest.copy ~gen forest)
  | Expr.Doc { doc; _ } ->
      Tree.element ~gen l_doc
        ~attrs:[ ("ref", Names.Doc_ref.to_string doc) ]
        []
  | Expr.Query_app { query; args; at; _ } ->
      Tree.element ~gen l_apply ~attrs:(at_attr at)
        (query_to_tree ~gen query
        :: [ Tree.element ~gen l_args (List.map (to_tree ~gen) args) ])
  | Expr.Sc { sc; at; _ } ->
      Tree.element ~gen l_sc ~attrs:(at_attr at) [ Axml_doc.Sc.to_tree ~gen sc ]
  | Expr.Send { dest; expr; _ } ->
      Tree.element ~gen l_send ~attrs:(dest_attrs dest) [ to_tree ~gen expr ]
  | Expr.Eval_at { at; expr; _ } ->
      Tree.element ~gen l_eval ~attrs:(at_attr at) [ to_tree ~gen expr ]
  | Expr.Shared { name; at; value; body; _ } ->
      Tree.element ~gen l_shared ~attrs:(shared_attrs name at)
        [
          Tree.element ~gen l_value [ to_tree ~gen value ];
          Tree.element ~gen l_body [ to_tree ~gen body ];
        ]

and query_to_tree ~gen (q : Expr.query_expr) =
  match q with
  | Expr.Q_val { q; at } ->
      Tree.element ~gen l_q_val ~attrs:(at_attr at)
        [ Tree.text (Axml_query.Ast.to_string q) ]
  | Expr.Q_service r ->
      Tree.element ~gen l_q_service
        ~attrs:[ ("ref", Names.Service_ref.to_string r) ]
        []
  | Expr.Q_send { dest; q } ->
      Tree.element ~gen l_q_send
        ~attrs:[ ("peer", Peer_id.to_string dest) ]
        [ query_to_tree ~gen q ]

let ( let* ) = Result.bind

let attr_or e name =
  match Tree.attr (Tree.Element e) name with
  | Some v -> Ok v
  | None ->
      Error
        (Printf.sprintf "expression element %s lacks attribute %S"
           (Label.to_string e.Tree.label)
           name)

let peer_attr e name =
  let* v = attr_or e name in
  match Peer_id.of_string_opt v with
  | Some p -> Ok p
  | None -> Error (Printf.sprintf "invalid peer identifier %S" v)

let element_children e = List.filter Tree.is_element e.Tree.children

let rec of_element (e : Tree.element) : (Expr.t, string) result =
  let lbl = e.label in
  if Label.equal lbl l_tree then
    let* at = peer_attr e "at" in
    (* The whole child list is the forest — text nodes included. *)
    Ok (Expr.data_at e.children ~at)
  else if Label.equal lbl l_doc then
    let* r = attr_or e "ref" in
    match Names.Doc_ref.of_string r with
    | dr -> Ok (Expr.doc_ref dr)
    | exception Invalid_argument msg -> Error msg
  else if Label.equal lbl l_apply then
    let* at = peer_attr e "at" in
    match element_children e with
    | [ q; Tree.Element args ] when Label.equal args.label l_args ->
        let* query =
          match q with
          | Tree.Element qe -> query_of_element qe
          | Tree.Text _ -> Error "e-apply query must be an element"
        in
        let* args =
          List.fold_left
            (fun acc child ->
              let* acc = acc in
              match child with
              | Tree.Element ce ->
                  let* e = of_element ce in
                  Ok (e :: acc)
              | Tree.Text _ -> Ok acc)
            (Ok []) args.children
        in
        Ok (Expr.query_app query ~args:(List.rev args) ~at)
    | _ -> Error "e-apply must contain a query and an args element"
  else if Label.equal lbl l_sc then
    let* at = peer_attr e "at" in
    match element_children e with
    | [ Tree.Element sce ] ->
        let* sc = Axml_doc.Sc.of_element sce in
        Ok (Expr.sc sc ~at)
    | _ -> Error "e-sc must contain exactly one sc element"
  else if Label.equal lbl l_send then
    let* kind = attr_or e "kind" in
    let* dest =
      match kind with
      | "peer" ->
          let* p = peer_attr e "peer" in
          Ok (Expr.To_peer p)
      | "doc" ->
          let* p = peer_attr e "peer" in
          let* d = attr_or e "doc" in
          (match Names.Doc_name.of_string_opt d with
          | Some d -> Ok (Expr.To_doc (d, p))
          | None -> Error (Printf.sprintf "invalid document name %S" d))
      | "nodes" ->
          let* spec = attr_or e "nodes" in
          let parts =
            String.split_on_char ';' spec |> List.filter (fun s -> s <> "")
          in
          let* targets =
            List.fold_left
              (fun acc s ->
                let* acc = acc in
                match Names.Node_ref.of_string s with
                | Some r -> Ok (r :: acc)
                | None -> Error (Printf.sprintf "invalid node ref %S" s))
              (Ok []) parts
          in
          Ok (Expr.To_nodes (List.rev targets))
      | other -> Error (Printf.sprintf "unknown send kind %S" other)
    in
    match element_children e with
    | [ Tree.Element ce ] ->
        let* expr = of_element ce in
        Ok (Expr.send dest expr)
    | _ -> Error "e-send must contain exactly one expression"
  else if Label.equal lbl l_eval then
    let* at = peer_attr e "at" in
    match element_children e with
    | [ Tree.Element ce ] ->
        let* expr = of_element ce in
        Ok (Expr.eval_at at expr)
    | _ -> Error "e-eval must contain exactly one expression"
  else if Label.equal lbl l_shared then
    let* at = peer_attr e "at" in
    let* name = attr_or e "name" in
    let* () =
      match Names.Doc_name.of_string_opt name with
      | Some _ -> Ok ()
      | None -> Error (Printf.sprintf "invalid document name %S" name)
    in
    let wrapped label =
      List.find_map
        (fun child ->
          match child with
          | Tree.Element ce when Label.equal ce.label label -> (
              match element_children ce with
              | [ Tree.Element inner ] -> Some (of_element inner)
              | _ -> Some (Error "share value/body must wrap one expression"))
          | Tree.Element _ | Tree.Text _ -> None)
        e.children
    in
    (match (wrapped l_value, wrapped l_body) with
    | Some value, Some body ->
        let* value = value in
        let* body = body in
        Ok (Expr.shared ~name ~at ~value ~body)
    | _ -> Error "e-share must contain value and body elements")
  else
    Error
      (Printf.sprintf "unknown expression element %s" (Label.to_string lbl))

and query_of_element (e : Tree.element) : (Expr.query_expr, string) result =
  let lbl = e.label in
  if Label.equal lbl l_q_val then
    let* at = peer_attr e "at" in
    let text = Tree.text_content (Tree.Element e) in
    match Axml_query.Parser.parse text with
    | Ok q -> Ok (Expr.Q_val { q; at })
    | Error pe -> Error (Format.asprintf "%a" Axml_query.Parser.pp_error pe)
  else if Label.equal lbl l_q_service then
    let* r = attr_or e "ref" in
    match Names.Service_ref.of_string r with
    | sr -> Ok (Expr.Q_service sr)
    | exception Invalid_argument msg -> Error msg
  else if Label.equal lbl l_q_send then
    let* dest = peer_attr e "peer" in
    match element_children e with
    | [ Tree.Element qe ] ->
        let* q = query_of_element qe in
        Ok (Expr.Q_send { dest; q })
    | _ -> Error "q-send must contain exactly one query"
  else
    Error (Printf.sprintf "unknown query element %s" (Label.to_string lbl))

let of_tree = function
  | Tree.Element e -> of_element e
  | Tree.Text _ -> Error "expected an expression element, found text"

let to_xml_string e =
  let gen = Axml_xml.Node_id.Gen.create ~namespace:"expr" in
  Axml_xml.Serializer.to_string (to_tree ~gen e)

let of_xml_string s =
  let gen = Axml_xml.Node_id.Gen.create ~namespace:"expr" in
  match Axml_xml.Parser.parse ~gen s with
  | Error e -> Error (Format.asprintf "%a" Axml_xml.Parser.pp_error e)
  | Ok t -> of_tree t

(* --- sizing ------------------------------------------------------ *)

module Serializer = Axml_xml.Serializer

(* A query's text is fixed by its AST: it is rendered once, and its
   length and escaped length are kept across plans and searches.
   Bounded like [Compile]'s memo.  The planner hands one AST to every
   candidate, so the last AST sized is recognized physically before the
   table hashes and compares it structurally. *)
let query_texts : (Axml_query.Ast.t, int * int) Hashtbl.t = Hashtbl.create 64
let last_text = ref None

let query_text_lengths q =
  match !last_text with
  | Some (q', n) when q' == q -> n
  | Some _ | None ->
      let n =
        match Hashtbl.find_opt query_texts q with
        | Some n -> n
        | None ->
            let s = Axml_query.Ast.to_string q in
            let n =
              (String.length s, Serializer.escaped_length ~quot:false s)
            in
            if Hashtbl.length query_texts >= 1024 then
              Hashtbl.reset query_texts;
            Hashtbl.replace query_texts q n;
            n
      in
      last_text := Some (q, n);
      n

let query_text_bytes q = fst (query_text_lengths q)

let element = Serializer.element_length

(* [String.length (to_xml_string e)], computed over the expression: no
   tree is built, no [Data_at] forest copied, and each query's text is
   rendered once per AST ([query_text_lengths]).  Mirrors [to_tree]
   constructor by constructor; a property in the algebra suite pins
   the equality.  Each node's size is stored in it
   ([Expr.memo_byte_size]), so a candidate plan pays only for the
   spine its rewrite rebuilt. *)
let rec byte_size e = Expr.memo_byte_size node_size e

and node_size (e : Expr.t) =
  match e with
  | Expr.Data_at { forest; at; _ } ->
      element l_tree (at_attr at) (Serializer.forest_serialized_length forest)
  | Expr.Doc { doc; _ } ->
      element l_doc [ ("ref", Names.Doc_ref.to_string doc) ] 0
  | Expr.Query_app { query; args; at; _ } ->
      element l_apply (at_attr at)
        (query_size query
        + element l_args []
            (List.fold_left (fun acc a -> acc + byte_size a) 0 args))
  | Expr.Sc { sc; at; _ } ->
      element l_sc (at_attr at) (Axml_doc.Sc.serialized_length sc)
  | Expr.Send { dest; expr; _ } ->
      element l_send (dest_attrs dest) (byte_size expr)
  | Expr.Eval_at { at; expr; _ } ->
      element l_eval (at_attr at) (byte_size expr)
  | Expr.Shared { name; at; value; body; _ } ->
      element l_shared (shared_attrs name at)
        (element l_value [] (byte_size value)
        + element l_body [] (byte_size body))

and query_size (q : Expr.query_expr) =
  match q with
  | Expr.Q_val { q; at } ->
      element l_q_val (at_attr at) (snd (query_text_lengths q))
  | Expr.Q_service r ->
      element l_q_service [ ("ref", Names.Service_ref.to_string r) ] 0
  | Expr.Q_send { dest; q } ->
      element l_q_send [ ("peer", Peer_id.to_string dest) ] (query_size q)
