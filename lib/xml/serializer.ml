(* Literal tab/newline in attribute values would be folded to spaces
   by a standard XML processor's attribute-value normalization, and a
   literal carriage return anywhere is folded to a newline by
   end-of-line normalization — either way a serialize→parse round trip
   would not be byte-stable.  Emitting them as numeric character
   references keeps the exact characters through any conforming
   parser (and through ours). *)
let escape buf ~quot s =
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' when quot -> Buffer.add_string buf "&quot;"
      | '\n' when quot -> Buffer.add_string buf "&#10;"
      | '\t' when quot -> Buffer.add_string buf "&#9;"
      | '\r' -> Buffer.add_string buf "&#13;"
      | c -> Buffer.add_char buf c)
    s

let escape_text s =
  let buf = Buffer.create (String.length s) in
  escape buf ~quot:false s;
  Buffer.contents buf

let escape_attr s =
  let buf = Buffer.create (String.length s) in
  escape buf ~quot:true s;
  Buffer.contents buf

let add_attrs buf attrs =
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf k;
      Buffer.add_string buf "=\"";
      escape buf ~quot:true v;
      Buffer.add_char buf '"')
    attrs

(* Children that produce no output.  An element holding only empty
   text nodes must self-close like a childless one: reparsing its
   serialization drops the empty texts, and `<e></e>` vs `<e/>` would
   break byte-stable round trips. *)
let empty_content =
  List.for_all (function Tree.Text "" -> true | _ -> false)

let rec add_tree buf = function
  | Tree.Text s -> escape buf ~quot:false s
  | Tree.Element e ->
      let name = Label.to_string e.label in
      Buffer.add_char buf '<';
      Buffer.add_string buf name;
      add_attrs buf e.attrs;
      if empty_content e.children then Buffer.add_string buf "/>"
      else begin
        Buffer.add_char buf '>';
        List.iter (add_tree buf) e.children;
        Buffer.add_string buf "</";
        Buffer.add_string buf name;
        Buffer.add_char buf '>'
      end

(* Character-for-character mirror of [escape]: the length the escaped
   form of [s] would occupy, without building it. *)
let escaped_length ~quot s =
  let n = ref 0 in
  String.iter
    (fun c ->
      n :=
        !n
        +
        match c with
        | '&' -> 5
        | '<' | '>' -> 4
        | '"' when quot -> 6
        | '\n' when quot -> 5
        | '\t' when quot -> 4
        | '\r' -> 5
        | _ -> 1)
    s;
  !n

(* [<name attrs/>] or [<name attrs>children</name>].  Children print
   nothing exactly when [empty_content] holds: an element prints at
   least [<x/>], a text node nothing only when it is empty. *)
let element_length label attrs n =
  let name = String.length (Label.to_string label) in
  let attrs =
    List.fold_left
      (fun acc (k, v) ->
        acc + 1 + String.length k + 2 + escaped_length ~quot:true v + 1)
      0 attrs
  in
  if n = 0 then 1 + name + attrs + 2
  else 1 + name + attrs + 1 + n + 2 + name + 1

(* Mirror of [add_tree]/[to_string ~decl:false]: counts the serialized
   bytes without materializing the string.  Kept in lock-step with the
   writer above (self-closing rule included); a qcheck property pins
   [serialized_length t = String.length (to_string t)]. *)
let rec serialized_length = function
  | Tree.Text s -> escaped_length ~quot:false s
  | Tree.Element e ->
      element_length e.label e.attrs
        (List.fold_left (fun acc c -> acc + serialized_length c) 0 e.children)

let forest_serialized_length f =
  List.fold_left (fun acc t -> acc + serialized_length t) 0 f

let to_string ?(decl = false) t =
  let buf = Buffer.create 256 in
  if decl then Buffer.add_string buf "<?xml version=\"1.0\"?>";
  add_tree buf t;
  Buffer.contents buf

let forest_to_string f =
  let buf = Buffer.create 256 in
  List.iter (add_tree buf) f;
  Buffer.contents buf

let is_ws s =
  let ws = ref true in
  String.iter (fun c -> if not (c = ' ' || c = '\t' || c = '\n' || c = '\r') then ws := false) s;
  !ws

let to_string_pretty ?(indent = 2) t =
  let buf = Buffer.create 256 in
  let pad n = Buffer.add_string buf (String.make n ' ') in
  let rec go level = function
    | Tree.Text s ->
        if not (is_ws s) then begin
          pad level;
          escape buf ~quot:false s;
          Buffer.add_char buf '\n'
        end
    | Tree.Element e ->
        let name = Label.to_string e.label in
        pad level;
        Buffer.add_char buf '<';
        Buffer.add_string buf name;
        add_attrs buf e.attrs;
        (match e.children with
        | [] -> Buffer.add_string buf "/>\n"
        | [ Tree.Text s ] when String.length s <= 60 ->
            Buffer.add_char buf '>';
            escape buf ~quot:false s;
            Buffer.add_string buf "</";
            Buffer.add_string buf name;
            Buffer.add_string buf ">\n"
        | kids ->
            Buffer.add_string buf ">\n";
            List.iter (go (level + indent)) kids;
            pad level;
            Buffer.add_string buf "</";
            Buffer.add_string buf name;
            Buffer.add_string buf ">\n")
  in
  go 0 t;
  Buffer.contents buf

let pp fmt t = Format.pp_print_string fmt (to_string_pretty t)
