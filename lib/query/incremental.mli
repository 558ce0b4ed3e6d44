(** Continuous (incremental) query evaluation.

    "Recall that all queries are continuous" (Section 3.2): inputs are
    streams of XML trees accumulating under input nodes, and
    "eval\@p(q) produces a result whenever the arrival of some new tree
    in the input streams leads to creating some output".

    A {!t} holds the trees seen so far on each input.  {!push} feeds
    one new tree on one input and returns exactly the *new* output
    trees — the delta — computed by evaluating the query with the new
    tree pinned on its input and all previously seen trees on the
    others (correct for our FLWR fragment because every output tuple
    draws at most one binding root per input, making evaluation
    monotone and distributive over input arrival).  A push whose query
    still waits for a tree on another input it draws from returns [[]]
    without evaluating.  An input's structural index is built once a
    second evaluation reads the input — on the first read when
    {!Compile}'s on-the-fly rule would build one anyway
    ({!Compile.index_input}) — and absorbs later arrivals until
    compaction drops it.  An input that one evaluation reads once is
    walked, not indexed. *)

type t

val create : Ast.t -> t
(** @raise Invalid_argument if the query is ill-formed. *)

val query : t -> Ast.t
val seen : t -> int -> Axml_xml.Forest.t
(** Trees received so far on an input. *)

val push :
  gen:Axml_xml.Node_id.Gen.t -> t -> input:int -> Axml_xml.Tree.t ->
  Axml_xml.Forest.t
(** Feed one tree; the returned forest contains only outputs newly
    enabled by this tree.  Mutates the state. *)

val push_forest :
  gen:Axml_xml.Node_id.Gen.t -> t -> input:int -> Axml_xml.Forest.t ->
  Axml_xml.Forest.t

val total_output :
  gen:Axml_xml.Node_id.Gen.t -> t -> Axml_xml.Forest.t
(** Evaluate the query over everything seen so far (reference
    semantics; the concatenated deltas are canonically equal to it —
    a property-tested invariant). *)
