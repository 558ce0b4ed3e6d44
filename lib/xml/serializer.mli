(** XML serialization.

    Expressions of the algebra serialize as XML trees (Section 3.1:
    "An expression can be viewed (serialized) as an XML tree"), and
    trees travel between peers as text; this module renders trees to
    standard XML syntax. *)

val escape_text : string -> string
(** Escape [&], [<], [>] for text content. *)

val escape_attr : string -> string
(** Escape ampersand, angle brackets and double quotes for
    double-quoted attribute values. *)

val to_string : ?decl:bool -> Tree.t -> string
(** Compact rendering.  [decl] prepends an XML declaration
    (default [false]). *)

val to_string_pretty : ?indent:int -> Tree.t -> string
(** Indented rendering; [indent] is the per-level indentation width
    (default 2). *)

val forest_to_string : Tree.t list -> string

val serialized_length : Tree.t -> int
(** [String.length (to_string t)] without materializing the string;
    mirrors the writer exactly (escaping and the self-closing rule). *)

val forest_serialized_length : Tree.t list -> int
(** [String.length (forest_to_string f)] without materializing. *)

val escaped_length : quot:bool -> string -> int
(** [String.length (escape_attr s)] when [quot], else
    [String.length (escape_text s)], without building either. *)

val element_length : Label.t -> (string * string) list -> int -> int
(** [element_length label attrs n]: the serialized length of a [label]
    element with these attributes whose children print [n] bytes —
    the self-closing form when [n = 0], as the writer emits it. *)

val pp : Format.formatter -> Tree.t -> unit
(** Pretty rendering on a formatter. *)
