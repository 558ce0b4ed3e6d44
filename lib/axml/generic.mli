(** Generic documents and services (Section 2.3, definition (9)).

    A generic document ed\@any denotes any member of an equivalence
    class of regular documents; similarly for services.  A {!catalog}
    records class memberships; [pick_doc] / [pick_service] implement
    the paper's pickDoc/pickService functions under a configurable
    {!policy} ("the implementation of an actual pick function at p
    depends on p's knowledge of the existing documents and services,
    p's preferences etc."). *)

type policy =
  | First  (** Deterministic: smallest member in reference order. *)
  | Random of int  (** Pseudo-random with the given seed. *)
  | Nearest of {
      from : Axml_net.Peer_id.t;
      topology : Axml_net.Topology.t;
      probe_bytes : int;
    }
      (** Cheapest link from [from] for a transfer of [probe_bytes]. *)
  | Least_loaded of (Axml_net.Peer_id.t -> float)
      (** Smallest load according to the supplied gauge. *)
  | Load_steered of {
      seed : int;
      gauge : Axml_net.Peer_id.t -> float option;
    }
      (** Like {!Least_loaded} but fed by an optional, windowed load
          signal (see [Placement.load_gauge]): [None] — telemetry
          disabled, no complete window, or a non-finite reading —
          never poisons the ranking.  Exact ties and the all-[None]
          case fall back to the seeded {!Random} rule. *)

type t
(** The catalog: class name → members.  Documents and services live in
    separate namespaces. *)

val create : unit -> t

val register_doc : t -> class_name:string -> Names.Doc_ref.t -> unit
(** Add a member to a document class.
    @raise Invalid_argument if the member's location is {!Names.Any}. *)

val register_service : t -> class_name:string -> Names.Service_ref.t -> unit

val unregister_doc : t -> class_name:string -> Names.Doc_ref.t -> unit
(** Retire a member from a document class (no-op if absent).  The
    class itself remains, possibly empty — a later {!register_doc}
    re-populates it. *)

val unregister_service : t -> class_name:string -> Names.Service_ref.t -> unit

val version : t -> int
(** The catalog's version: 0 at {!create}, bumped by every register or
    unregister that changes a member list (a duplicate register or an
    absent unregister leaves it).  A catalog's member lists are
    therefore a function of its identity and its version, which is what
    lets a reader keep a view built from it until either changes. *)

val doc_members : t -> class_name:string -> Names.Doc_ref.t list
val service_members : t -> class_name:string -> Names.Service_ref.t list

val pick_doc :
  ?available:(Axml_net.Peer_id.t -> bool) ->
  t ->
  policy:policy ->
  class_name:string ->
  Names.Doc_ref.t option
(** Resolve d\@any to a concrete d\@p, [None] for unknown or empty
    classes.  [available] filters members before the policy chooses:
    a member whose peer is crashed or partitioned away is skipped, so
    generic calls degrade gracefully instead of hanging (the class's
    availability story, Section 2.2). *)

val pick_service :
  ?available:(Axml_net.Peer_id.t -> bool) ->
  t ->
  policy:policy ->
  class_name:string ->
  Names.Service_ref.t option

val classes : t -> string list
