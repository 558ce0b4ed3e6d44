(** XML forests: ordered lists of trees.

    Service parameters and continuous-service outputs are forests
    (Section 2.1: a service receives "an XML forest of type τin"). *)

type t = Tree.t list

val empty : t
val size : t -> int
val byte_size : t -> int
(** Sum of {!Tree.byte_size} over the trees, walked on every call. *)

val copy : gen:Node_id.Gen.t -> t -> t
val concat_map : (Tree.t -> t) -> t -> t
val elements : t -> Tree.element list
val pp : Format.formatter -> t -> unit
