(** Per-peer document store.

    Holds the documents of one peer, keyed by name ("no two documents
    can agree on the values of (d, p)", Section 2.1).  The store is
    mutable — it is the piece of system state Σ owned by a peer.

    When {!Axml_obs.Timeseries} telemetry is enabled, the store feeds
    one per-document load series: [doc/<name>/reads] counts one per
    {!find} hit — the demand signal the placement controller reads.
    Disabled, the site costs one boolean load. *)

type t

val create : unit -> t

val add : t -> Document.t -> unit
(** @raise Invalid_argument if the name is taken (the paper requires
    installing under "a name d not previously in use"). *)

val install : t -> name:string -> Axml_xml.Tree.t -> Names.Doc_name.t
(** Install a tree under [name]; if taken, derive a fresh name by
    numeric suffix and return it (used by [send(d\@p2, t\@p1)]
    evaluation when racing installs occur). *)

val find : t -> Names.Doc_name.t -> Document.t option
val find_by_string : t -> string -> Document.t option

val peek : t -> Names.Doc_name.t -> Document.t option
(** Like {!find} but without recording a [doc/<n>/reads] event — for
    the runtime's own machinery (replica shipping, retraction,
    fingerprints), whose lookups are not query load and must not feed
    the placement controller's signals. *)

val peek_by_string : t -> string -> Document.t option
val mem : t -> Names.Doc_name.t -> bool
val remove : t -> Names.Doc_name.t -> unit
val update : t -> Document.t -> unit
(** Replace the stored document of the same name.
    @raise Not_found if absent. *)

(** {1 Version stamps}

    Every mutation re-stamps the document from one process-global
    monotonic counter: [add], [install], [update], [update_root] and
    [insert_under] bump; [remove] clears the stamp ([version_of] goes
    [None]).  Stamps are never reused, so a consumer that pinned
    [(d, v)] can detect {e any} later state — including a
    crash-restart reload of identical content, which re-adds the
    document and draws a fresh stamp.  This is the invalidation signal
    of the {!Axml_query.Qcache} semantic cache. *)

val version_of : t -> Names.Doc_name.t -> int option
(** The current version stamp; [None] if the document is absent. *)

val set_on_mutate : t -> (Names.Doc_name.t -> unit) -> unit
(** Install a hook called (with the document name) after every
    mutation, including {!remove}.  One hook per store; installing
    replaces the previous one.  Telemetry-quiet reads ({!peek}) never
    fire it. *)

val names : t -> Names.Doc_name.t list

val documents : t -> Document.t list
(** Every document, sorted by name.  A quiet listing, like {!peek}: it
    records no [doc/<n>/reads] event, so the runtime's bookkeeping
    over all of a peer's documents (insert routing, checkpoints,
    activation) is not read as demand. *)

val update_root :
  t -> Names.Doc_name.t -> (Axml_xml.Tree.t -> Axml_xml.Tree.t) -> bool
(** Apply a root transformation in place; [false] if absent. *)

(** {1 Planner statistics} *)

val stats_of :
  t -> Names.Doc_name.t -> Axml_query.Selectivity.Stats.t option
(** Exact per-label statistics of the document, for the planner's cost
    model ({!Axml_query.Selectivity.Stats.of_forest} of its root);
    [None] if the document is absent.  Computed on first demand and
    kept until the next mutation of that document: every operation
    that re-stamps it, and {!remove}, drops them.  A quiet read, like
    {!peek}. *)

val insert_under :
  t ->
  Names.Doc_name.t ->
  node:Axml_xml.Node_id.t ->
  Axml_xml.Forest.t ->
  Document.t option
(** [insert_under t name ~node forest] appends [forest] under [node]
    (as {!Document.insert_under}) and stores the updated document.
    [None] if the document or target node is absent. *)
