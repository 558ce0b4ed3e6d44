(** Abstract syntax of the declarative query language.

    The paper relies on "declarative Web services, whose implementation
    is a declarative XML query" (Section 2.2) with composition,
    decomposition and selections (Section 3.3, rule (11) and
    Example 1).  We realize this with a FLWR fragment: nested [for]
    bindings over child/descendant paths, a [where] predicate, and an
    XML-constructing [return] clause.  Queries are composable
    ({!Compose}) and serializable to text ({!to_string} /
    {!module:Parser}), hence shippable between peers as XML. *)

type axis = Child | Descendant
type test = Name of Axml_xml.Label.t | Any_elt
type step = { axis : axis; test : test }
type path = step list

type source =
  | Input of int  (** [$k]: the k-th input forest of the query. *)
  | Var of string  (** A previously bound variable. *)

type operand =
  | Const of string  (** String literal. *)
  | Number of float  (** Numeric literal. *)
  | Text_of of string  (** [text($x)]: concatenated text content. *)
  | Attr_of of string * string  (** [attr($x, "name")]. *)

type cmp = Eq | Neq | Lt | Le | Gt | Ge | Contains

type pred =
  | True
  | Cmp of operand * cmp * operand
  | Exists of string * path  (** [exists($x/path)]. *)
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type construct =
  | Elem of {
      label : Axml_xml.Label.t;
      attrs : (string * string) list;
      children : construct list;
    }
  | Text of string
  | Copy_of of string  (** [{$x}]: deep copy of the bound subtree. *)
  | Content_of of string  (** [{text($x)}]: text content as a text node. *)
  | Attr_content of string * string
      (** [{attr($x,"a")}]: attribute value as a text node. *)

type binding = { var : string; source : source; path : path }

type flwr = {
  arity : int;  (** Number of input forests; inputs are [$0..$n-1]. *)
  bindings : binding list;
  where : pred;
  return_ : construct;
}

type t =
  | Flwr of flwr
  | Compose of flwr * t list
      (** [Compose (q1, [q2; …; qn])] is the composed query
          q1(q2, …, qn) of rule (11): each qi consumes the composed
          query's inputs, and q1 consumes their outputs. *)

(** {1 Construction helpers} *)

val child : string -> step
val desc : string -> step
val child_any : step
val desc_any : step
val flwr : ?where:pred -> arity:int -> binding list -> construct -> t
val conj : pred list -> pred
val conjuncts : pred -> pred list
(** Flatten nested {!And}s; [conj (conjuncts p)] is equivalent to [p]. *)

(** {1 Analysis} *)

val arity : t -> int
val pred_vars : pred -> string list
(** Variables a predicate refers to, without duplicates. *)

val construct_vars : construct -> string list

val check : t -> (unit, string) result
(** Well-formedness: variables are bound before use, bound at most
    once, and input indices are within arity; composed queries have
    matching arities. *)

(** {1 Printing}

    [to_string] emits the concrete syntax accepted by
    {!module:Parser}; the round-trip [Parser.parse (to_string q)]
    yields a query structurally equal to [q]. *)

val path_to_string : path -> string
val pp : Format.formatter -> t -> unit
val to_string : t -> string
val equal : t -> t -> bool
(** Structural (syntactic) equality; physically equal ASTs are equal
    without a walk. *)
