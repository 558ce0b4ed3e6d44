(** Query evaluation.

    Evaluates a query over a list of input forests, producing an output
    forest.  This is the "usual sense" evaluation of definition (2) of
    the paper; continuous evaluation over streams is derived from it in
    {!module:Incremental}. *)

val path_select : Ast.path -> Axml_xml.Tree.t list -> Axml_xml.Tree.t list
(** Nodes reached from the roots of a forest by a path.  The empty
    path selects the roots themselves. *)

val eval :
  gen:Axml_xml.Node_id.Gen.t ->
  Ast.t ->
  Axml_xml.Forest.t list ->
  Axml_xml.Forest.t
(** [eval ~gen q inputs] evaluates [q].  Constructed elements and
    copies receive fresh identifiers from [gen].
    @raise Invalid_argument if [List.length inputs <> Ast.arity q] or
    the query is ill-formed (see {!Ast.check}). *)

val eval_tree :
  gen:Axml_xml.Node_id.Gen.t -> Ast.t -> Axml_xml.Tree.t -> Axml_xml.Forest.t
(** Unary convenience: [eval ~gen q [[t]]]. *)

val compare_values : Ast.cmp -> string -> string -> bool
(** XPath-1.0-style weak-typed comparison: ordering operators compare
    numerically when both sides parse as numbers, as strings
    otherwise; [Contains] is pure substring search.  Shared with
    {!Compile}, so the compiled path agrees exactly with this
    reference interpreter. *)

module Eq_key : sig
  include Hashtbl.HashedType

  val of_value : string -> t
  (** The value's equality class under {!compare_values} [Eq]: its
      float when the trimmed string parses as a number, the raw
      string otherwise.  [compare_values Eq a b] holds exactly when
      [equal (of_value a) (of_value b)]: ["1"], ["1.0"] and [" 1"]
      meet, as do ["-0"] and ["0"], and ["nan"] and ["-nan"].
      {!Compile} hashes equality joins on it. *)
end

val holds : Ast.pred -> (string * Axml_xml.Tree.t) list -> bool
(** Predicate evaluation under an environment binding variables to
    nodes.  Exposed for tests and for the optimizer's selectivity
    estimation. *)

val eval_counted :
  gen:Axml_xml.Node_id.Gen.t ->
  Ast.t ->
  Axml_xml.Forest.t list ->
  Axml_xml.Forest.t * int
(** Like {!eval} (unchecked), additionally returning the number of
    binding extensions enumerated — the work metric binding
    reordering ({!module:Optimize}) reduces.  Conjuncts of the [where]
    clause are applied as soon as their variables are bound, so an
    early selective binding prunes the count. *)
