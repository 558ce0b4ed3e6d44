(** Schema-driven data generation.

    Produces random trees that {e conform} to a declared type — by
    walking the content-model regular expression and instantiating
    each atom — so properties of typed code paths (validation, query
    output typing, signature checking) can be fuzzed with valid
    inputs. *)

val tree :
  schema:Axml_schema.Schema.t ->
  type_name:string ->
  gen:Axml_xml.Node_id.Gen.t ->
  rng:Axml_workload.Rng.t ->
  ?max_depth:int ->
  ?max_star:int ->
  unit ->
  Axml_xml.Tree.t option
(** A random tree of the given type.  [max_star] bounds the expansion
    of [Star]/[Plus] (default 2); [max_depth] (default 12) bounds
    recursion through recursive grammars — when the bound cannot be
    respected (the type needs deeper structure), [None].  For the
    universal type a small generic element is produced.

    Guarantee (property-tested): [Some t] implies
    [Validate.conforms ~schema ~type_name t]. *)

val forest :
  schema:Axml_schema.Schema.t ->
  type_names:string list ->
  gen:Axml_xml.Node_id.Gen.t ->
  rng:Axml_workload.Rng.t ->
  unit ->
  Axml_xml.Forest.t option
(** Point-wise {!tree}; [None] if any position fails. *)
