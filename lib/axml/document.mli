(** AXML documents.

    "An XML document is a tuple (t, d) where t is an XML tree and
    d ∈ D is a document name" (Section 2.1); an AXML document
    additionally contains [sc] nodes (Section 2.2). *)

type t

val make : name:string -> Axml_xml.Tree.t -> t
val name : t -> Names.Doc_name.t
val root : t -> Axml_xml.Tree.t
val with_root : t -> Axml_xml.Tree.t -> t

val calls : t -> (Axml_xml.Node_id.t * Sc.t) list
(** All service calls embedded in the document. *)

val has_calls : t -> bool

val byte_size : t -> int
(** {!Axml_xml.Tree.byte_size} of the root, walked on every call.
    Planning reads a document's size from its store statistics'
    [total_bytes] instead, and a document read takes it from the walk
    that copies the root; lazy evaluation prices its input with this. *)

val size : t -> int

val insert_under :
  node:Axml_xml.Node_id.t -> Axml_xml.Forest.t -> t -> t option
(** Add trees as children of an identified node (how forwarded results
    land, Section 2.3). *)

val insert_after :
  node:Axml_xml.Node_id.t -> Axml_xml.Forest.t -> t -> t option
(** Add trees as siblings of an identified node (default accumulation
    of call results, Section 2.2 step 3). *)

val pp : Format.formatter -> t -> unit
val to_xml_string : t -> string
