(** The expression language E of extended AXML computations
    (Section 3.1).

    Members of E:
    - trees and documents located at peers: t\@p, d\@p (and the generic
      d\@any);
    - query applications q\@p(e1, …, en);
    - data shipping: send(p2, e), send([n1\@p1, …], e),
      send(d\@p2, e);
    - query shipping: send(p2, q\@p1) — deploys q as a new service at
      p2 (definition (8));
    - service-call trees sc(provider, s, params, fwList);
    - evaluation-site delegation eval\@p(e) (rules (14), (15));
    - materialized sharing (the d\@p of rule (13)): evaluate once,
      install as a document, reference it from the body.

    An expression denotes a computation; {!module:Axml_peer.Exec}
    gives it the operational semantics of definitions (1)–(9), and
    {!module:Rewrite} transforms it under the equivalence rules
    (10)–(16). *)

module Peer_id = Axml_net.Peer_id
module Names = Axml_doc.Names

(** Destination of a [send] (Section 3.1). *)
type dest =
  | To_peer of Peer_id.t
      (** send(p2, e): the value becomes available at p2. *)
  | To_nodes of Names.Node_ref.t list
      (** send([n\@p, …], e): append under each node, return ∅
          (definition (4)). *)
  | To_doc of Names.Doc_name.t * Peer_id.t
      (** send(d\@p2, e): install as a new document (Section 3.1). *)

(** An expression in query position: something that denotes a query
    value. *)
type query_expr =
  | Q_val of { q : Axml_query.Ast.t; at : Peer_id.t }
      (** q\@p: a query residing at p. *)
  | Q_service of Names.Service_ref.t
      (** The query implementing a declarative service (inspectable
          per Section 2.2). *)
  | Q_send of { dest : Peer_id.t; q : query_expr }
      (** send(p2, q): ship the query to p2 (definition (8)). *)

type memo
(** A node's stored summaries — its {!fingerprint} and its
    {!Expr_xml.byte_size} — each filled the first time it is asked
    for.  Every constructor below starts a node with an empty memo, so
    a rebuilt node never inherits a summary of the node it replaces. *)

(** The type is private: nodes are built only by the constructors
    below, and read by pattern matching. *)
type t = private
  | Data_at of { forest : Axml_xml.Forest.t; at : Peer_id.t; memo : memo }
      (** t\@p — literal data located at a peer.  A forest, because
          expression values are forests (streams of trees). *)
  | Doc of { doc : Names.Doc_ref.t; memo : memo }
  | Query_app of {
      query : query_expr;
      args : t list;
      at : Peer_id.t;
      memo : memo;
    }
      (** Apply [query] at peer [at] to the argument expressions. *)
  | Sc of { sc : Axml_doc.Sc.t; at : Peer_id.t; memo : memo }
      (** An sc-rooted tree located at [at] (definition (6)). *)
  | Send of { dest : dest; expr : t; memo : memo }
  | Eval_at of { at : Peer_id.t; expr : t; memo : memo }
      (** Delegate the evaluation of [expr] to peer [at]. *)
  | Shared of {
      name : Names.Doc_name.t;
      at : Peer_id.t;
      value : t;
      body : t;
      memo : memo;
    }
      (** Rule (13): evaluate [value], materialize it at [at] under
          [name]; [body] (which may reference Doc(name\@at)) starts
          only once the document is installed — the deliberate loss of
          parallelism the paper discusses. *)

(** {1 Constructors} *)

val tree_at : Axml_xml.Tree.t -> at:Peer_id.t -> t
val data_at : Axml_xml.Forest.t -> at:Peer_id.t -> t
val doc : string -> at:string -> t
val doc_any : string -> t
val doc_ref : Names.Doc_ref.t -> t
val query_at : Axml_query.Ast.t -> at:Peer_id.t -> args:t list -> t
val query_app : query_expr -> args:t list -> at:Peer_id.t -> t
val send : dest -> t -> t
val send_to_peer : Peer_id.t -> t -> t
val send_to_nodes : Names.Node_ref.t list -> t -> t
val send_as_doc : name:string -> at:Peer_id.t -> t -> t
val eval_at : Peer_id.t -> t -> t
val sc : Axml_doc.Sc.t -> at:Peer_id.t -> t
val shared : name:string -> at:Peer_id.t -> value:t -> body:t -> t

(** {1 Analysis} *)

val site : t -> Names.location
(** Where the expression's result materializes: [To_peer] sends land
    at their destination, side-effecting sends produce ∅ at the
    sender, data sits where it is.  {!Names.Any} for generic documents
    not yet resolved. *)

val query_site : query_expr -> Names.location

val peers : t -> Peer_id.t list
(** Every peer mentioned, without duplicates. *)

val subexpressions : t -> t list
(** Direct children in the expression tree. *)

val size : t -> int
(** Number of expression nodes: {!fingerprint}'s [size]. *)

val cache_deps : t -> (Peer_id.t * string) list option
(** [Some deps] if the expression is a deterministic, effect-free
    read whose result is a function of the listed documents alone —
    the condition for {!Axml_query.Qcache} admission.  [deps] is the
    sorted, de-duplicated list of [(peer, doc)] the expression reads;
    it is empty for pure literals.  [None] marks the uncacheable:
    [Sc]/[Send]/[Shared] (activations, shipping, materialization are
    effects), [Doc] at [any] (resolution reads catalog state),
    [Q_service]/[Q_send] query positions (registry state,
    deployment), and [Data_at] forests embedding sc-rooted trees
    (evaluation activates them, definition (6)). *)

val map_children : (t -> t) -> t -> t
(** Rebuild with rewritten direct children.  The function is applied
    to the children in {!subexpressions} order, so a stateful argument
    (e.g. a positional rebuild) may rely on the two traversals
    agreeing.  The rebuilt node starts with an empty {!memo}; leaves
    are returned as they are. *)

val equal : t -> t -> bool
(** Structural, modulo node identifiers inside embedded trees.
    Physically equal subtrees are equal without a walk. *)

val equal_calls : unit -> int
(** Number of {!equal} invocations since program start.  Structural
    comparison is the inner loop of plan search; the planner
    benchmarks difference this counter to report how many comparisons
    a search paid for. *)

(** {1 Fingerprints}

    A cheap structural summary used by the optimizer's visited set:
    candidate plans are bucketed by fingerprint, and the full
    {!equal} runs only against same-fingerprint bucket members
    (hash-collision fallback). *)

module Fingerprint : sig
  type t = {
    hash : int;  (** Structural hash, invariant under {!val:equal}. *)
    size : int;  (** Expression-node count (same as {!val:size}). *)
    depth : int;  (** Expression-tree depth. *)
  }

  val equal : t -> t -> bool
  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
end

val fingerprint : t -> Fingerprint.t
(** Stored in the node: computed on the first call from the node's own
    fields and its children's stored fingerprints, then read.  A plan a
    rewrite derived from another therefore pays only for the spine the
    rewrite rebuilt.  [equal a b] implies
    [Fingerprint.equal (fingerprint a) (fingerprint b)] — the hash
    looks through everything {!equal} ignores (node identifiers and
    sibling order in embedded forests, the order of forward lists). *)

val depth : t -> int
(** Depth of the expression tree: {!fingerprint}'s [depth]. *)

val memo_byte_size : (t -> int) -> t -> int
(** [memo_byte_size measure e] is [measure e], computed on the first
    call for [e] and stored in its {!memo}: the slot behind
    {!Expr_xml.byte_size}, which owns the encoding [measure] sizes and
    is its only caller.  [measure] must be a function of the node's
    structure. *)

val pp : Format.formatter -> t -> unit
(** Human-oriented notation close to the paper's, e.g.
    [send(p1, apply@p2(…))]. *)

val to_string : t -> string
