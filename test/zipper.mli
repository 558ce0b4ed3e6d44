(** Tree zipper.

    A purely functional cursor into a {!Axml_xml.Tree.t}, supporting
    navigation and local edits in O(1) amortized per step.  The tree
    suites check it against {!Axml_xml.Tree}'s own operations. *)

type t

val of_tree : Axml_xml.Tree.t -> t
(** Cursor focused on the root. *)

val to_tree : t -> Axml_xml.Tree.t
(** Rebuild the full tree from any focus position. *)

val focus : t -> Axml_xml.Tree.t
(** The subtree currently under the cursor. *)

(** {1 Navigation} — [None] when the move is impossible. *)

val up : t -> t option
val down : t -> t option
(** First child. *)

val left : t -> t option
val right : t -> t option
val root : t -> t
(** Move all the way up. *)

val find_id : Axml_xml.Node_id.t -> t -> t option
(** Cursor on the element with the given identifier, searching the
    whole tree from the root. *)

(** {1 Edits} *)

val replace : Axml_xml.Tree.t -> t -> t
(** Replace the focused subtree. *)

val append_child : Axml_xml.Tree.t -> t -> t
(** Append a child to the focused element.
    @raise Invalid_argument if the focus is a text node. *)

val insert_right : Axml_xml.Tree.t -> t -> t option
(** Insert a sibling immediately to the right of the focus; [None] at
    the root. *)

val delete : t -> t option
(** Delete the focused subtree; the cursor moves to the parent.
    [None] at the root. *)
