(** Result-size estimation.

    The optimizer of {!module:Axml_algebra} compares plans by the
    volume of data each one ships.  This module estimates the output
    cardinality and byte size of a query over given inputs.

    Two estimators are provided: an {e oracle} that actually evaluates
    the query (exact, usable in the simulator where all data is
    locally reachable), and a {e sketch} estimator that works from
    per-label statistics only — the realistic setting in which a peer
    knows summary statistics about remote documents but not their
    content. *)

type estimate = { cardinality : int; bytes : int }

val oracle :
  gen:Axml_xml.Node_id.Gen.t ->
  Ast.t ->
  Axml_xml.Forest.t list ->
  estimate
(** Exact: evaluates the query. *)

(** Per-document statistics: label histogram and average subtree
    size per label. *)
module Stats : sig
  type t

  val of_forest : Axml_xml.Forest.t -> t
  (** One walk of the forest, allocating per label, not per node:
      subtree bytes are summed bottom-up ({!Axml_xml.Tree.byte_size}'s
      formula). *)

  val of_index : Axml_xml.Index.t -> t
  (** The same statistics read off a structural index (accumulated
      during its build pass): equal to [of_forest] of the indexed
      forest. *)

  val label_count : t -> Axml_xml.Label.t -> int
  val avg_bytes : t -> Axml_xml.Label.t -> int

  val labels : t -> (Axml_xml.Label.t * int * int) list
  (** Per label, in label order: (count, total subtree bytes). *)

  val total_nodes : t -> int
  val total_bytes : t -> int
  (** {!Axml_xml.Forest.byte_size} of the forest. *)
end

val sketch : Ast.t -> Stats.t list -> estimate
(** Statistics-only estimate.  Bindings multiply estimated match
    counts; each comparison predicate applies a constant selectivity
    factor (0.1, the classical System-R default for equality; 0.33 for
    inequalities); output bytes scale with the constructed shape. *)
