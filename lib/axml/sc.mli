(** Service call elements.

    An AXML document embeds calls as [sc]-labeled elements whose
    children are [peer], [service], [param1..paramk] and the optional
    [forw] forward targets introduced in Section 2.3:

    {v
    <sc>
      <peer>p1</peer> <service>s1</service>
      <param1>…</param1> … <paramk>…</paramk>
      <forw>n7@p2</forw>
    </sc>
    v}

    This module converts between the XML form and a structured view.
    The extended notation of the paper reads
    sc((pprov|any), serv, [param1..paramk], [forw1..forwm]). *)

type t = {
  provider : Names.location;  (** The peer providing the service, or Any. *)
  service : Names.Service_name.t;
  params : Axml_xml.Forest.t list;  (** Contents of the parami elements. *)
  forward : Names.Node_ref.t list;
      (** Where responses go; empty means the default — as siblings of
          the [sc] node (Section 2.3). *)
}

val sc_label : Axml_xml.Label.t
(** The distinguished label ["sc"]. *)

val make :
  ?forward:Names.Node_ref.t list ->
  provider:Names.location ->
  service:string ->
  Axml_xml.Forest.t list ->
  t

val to_tree : gen:Axml_xml.Node_id.Gen.t -> t -> Axml_xml.Tree.t
(** Encode as an [sc] element (fresh identifiers throughout). *)

val serialized_length : t -> int
(** [Axml_xml.Serializer.serialized_length (to_tree ~gen sc)], without
    building the tree or copying the parameters. *)

val of_element : Axml_xml.Tree.element -> (t, string) result
(** Decode an element labeled [sc].  Parameters are collected in
    [param1], [param2], … index order regardless of child order. *)

val is_sc : Axml_xml.Tree.t -> bool

val find_calls : Axml_xml.Tree.t -> (Axml_xml.Node_id.t * t) list
(** All well-formed service calls in a tree, pre-order, with the node
    identifier of their [sc] element.  Calls nested inside other
    calls' parameters are included. *)

val equal : t -> t -> bool
(** Structural equality modulo parameter-forest node identifiers,
    sibling order ({!Axml_xml.Canonical}) and forward-list order. *)

val pp : Format.formatter -> t -> unit
