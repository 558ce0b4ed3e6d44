(** Static cost model for expressions.

    Ranks the plans produced by {!module:Rewrite} before any of them
    runs.  Charges follow the affine link model of
    {!Axml_net.Link.transfer_ms}; local evaluation is charged
    proportionally to the bytes a query consumes.  Parallel branches
    (the arguments of an application, the targets of a multicast
    [send]) contribute the {e maximum} of their latencies; sequencing
    contributes the sum — the classical response-time model of
    distributed query processing.

    The model is an estimator: experiments compare its ranking with
    measured simulator statistics (EXPERIMENTS.md, E10). *)

type env = {
  topology : Axml_net.Topology.t;
  doc_bytes : Axml_doc.Names.Doc_ref.t -> int;
      (** Size oracle for documents (statistics a peer would keep
          about the network's documents). *)
  doc_stats :
    Axml_doc.Names.Doc_ref.t -> Axml_query.Selectivity.Stats.t option;
      (** Per-label statistics for documents whose store index is
          visible; sharpens {!Axml_query.Selectivity.sketch}-based
          output estimates for query applications over named
          documents. *)
  service_query : Axml_doc.Names.Service_ref.t -> Axml_query.Ast.t option;
      (** Visible implementations of declarative services. *)
  query_out_bytes : Axml_query.Ast.t -> int list -> int;
      (** Output-size estimate from input sizes. *)
  cpu_ms_per_kb : float;
      (** Local evaluation cost per kilobyte of input consumed. *)
  cpu_factor : Axml_net.Peer_id.t -> float;
      (** Per-peer speed multiplier (2.0 = twice as slow); mirrors
          {!Axml_net.Sim.cpu_factor}. *)
}

val default_env :
  ?cpu_ms_per_kb:float ->
  ?cpu_factor:(Axml_net.Peer_id.t -> float) ->
  ?doc_bytes:(Axml_doc.Names.Doc_ref.t -> int) ->
  ?doc_stats:
    (Axml_doc.Names.Doc_ref.t -> Axml_query.Selectivity.Stats.t option) ->
  ?service_query:(Axml_doc.Names.Service_ref.t -> Axml_query.Ast.t option) ->
  ?query_out_bytes:(Axml_query.Ast.t -> int list -> int) ->
  Axml_net.Topology.t ->
  env
(** Defaults: unknown documents estimate to 4 KiB; no visible service
    queries; query output estimates to 20% of total input (the
    selection-heavy workloads of the paper); 0.01 ms/KiB CPU. *)

val memoize : env -> env
(** The same oracles, each distinct document passed to [doc_bytes] and
    [doc_stats] once: a search prices hundreds of candidates over the
    same few documents.  The memo lives as long as the returned env, so
    make one per search — the oracles of {!env} may read a live system
    whose documents change between searches. *)

type t = {
  bytes : int;  (** Total bytes shipped over remote links. *)
  messages : int;  (** Remote messages. *)
  latency_ms : float;  (** Critical-path completion time. *)
  result_bytes : int;  (** Estimated size of the final result. *)
}

val zero : t
val pp : Format.formatter -> t -> unit

val dominates : t -> t -> bool
(** [dominates a b]: a is no worse on bytes, messages and latency. *)

val weighted : ?bytes_weight:float -> ?latency_weight:float -> t -> float
(** Scalarization used by the optimizer: by default
    [0.5 * bytes + 0.5 * latency_ms * 100]. *)

val of_expr : env -> ctx:Axml_net.Peer_id.t -> Expr.t -> t
(** Estimate the cost of evaluating the expression driven from peer
    [ctx] (the peer issuing eval\@ctx(e)). *)
