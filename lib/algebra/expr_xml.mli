(** XML serialization of expressions.

    "An expression can be viewed (serialized) as an XML tree, whose
    root is labeled with the expression constructor, and whose children
    are the expression parameters" (Section 3.1).  This encoding is the
    wire format used when a peer delegates evaluation of an expression
    to another peer, and its byte size is what the cost model charges
    for shipping plans. *)

val to_tree : gen:Axml_xml.Node_id.Gen.t -> Expr.t -> Axml_xml.Tree.t

val of_tree : Axml_xml.Tree.t -> (Expr.t, string) result
(** Inverse of {!to_tree} modulo node identifiers. *)

val to_xml_string : Expr.t -> string
(** [to_tree] composed with the XML serializer (private identifier
    namespace). *)

val of_xml_string : string -> (Expr.t, string) result

val byte_size : Expr.t -> int
(** [String.length (to_xml_string e)] — the shipping cost of the plan
    itself, and what the Xml wire charges for it — computed over the
    expression: no tree is built and no literal forest copied. *)

val query_text_bytes : Axml_query.Ast.t -> int
(** [String.length (Axml_query.Ast.to_string q)].  The text is
    rendered once per AST (in a bounded table that also keeps its
    escaped length for {!byte_size}). *)
