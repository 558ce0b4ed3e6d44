(** Per-document structural index.

    One build pass assigns every element a preorder rank [pre] and the
    largest rank in its subtree [post], so "x is a descendant of c"
    is the interval test [c.pre < x.pre <= c.post], and keeps a
    postings list per label sorted by [pre].  A descendant step then
    costs a binary search plus the matches — it scales with the
    result, not the document.

    New top-level trees (a growing query input) are absorbed in
    O(subtree) by {!append_roots}: each appended forest becomes a
    {e segment} with its own local numbering.  When the appended
    volume reaches the base volume, {!needs_compaction} tells the
    holder to rebuild (geometric compaction, so maintenance stays
    amortized O(subtree) per appended tree).  The index never absorbs
    an edit under an existing node: an edited document is indexed
    again.

    The index is an acceleration structure, never an oracle: lookups
    return entries only for trees it has indexed, and {!usable} is
    [false] when the input violated the node-id uniqueness the index
    keys on (callers then fall back to plain traversal). *)

type t
type entry

val build : Tree.t -> t
(** Index one tree (a document root). *)

val build_forest : Forest.t -> t
(** Index a forest (query-input semantics: the trees are top-level
    roots, none an ancestor of another). *)

val usable : t -> bool
(** [false] when duplicate element ids were seen — id-keyed lookups
    would be ambiguous, so consumers must fall back to traversal. *)

val total_nodes : t -> int
(** Every node including text leaves (matches
    [Selectivity.Stats.total_nodes]). *)

val total_bytes : t -> int
(** Serialized byte estimate, as {!Tree.byte_size}. *)

val find : t -> Node_id.t -> entry option
val entry_of : t -> Tree.t -> entry option
(** [None] for text nodes and unindexed trees. *)

val node : entry -> Tree.t
(** The indexed subtree. *)

val descendants : ?label:Label.t -> t -> entry -> entry list
(** Strict descendants of the entry that are elements (of [label]
    when given), in document order — exactly the nodes
    [Query.Eval]'s descendant axis visits. *)

val append_roots : t -> Forest.t -> bool
(** Absorb new top-level trees (a growing input forest).  [false] if
    the forest reuses an indexed id or the index is not {!usable} —
    the caller should rebuild instead. *)

val needs_compaction : t -> bool
(** Appended volume exceeds the base segment — rebuilding now keeps
    the amortized maintenance bound. *)

val label_count : t -> Label.t -> int
(** Postings length: the exact number of elements with this label. *)

val label_stats : t -> (Label.t * int * int) list
(** Per label: (count, total subtree bytes) — exact statistics for
    {!Selectivity.Stats}, computed during the build pass. *)
