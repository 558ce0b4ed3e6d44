(** Umbrella entry point for the distributed AXML framework.

    One alias per subsystem; see DESIGN.md for the map from the paper's
    sections to these modules.

    {ul
    {- {!Xml}: trees, parser, serializer, canonical forms (Section 2.1).}
    {- {!Schema}: tree types and service signatures (Section 2.1).}
    {- {!Query}: the declarative query language (Section 2.2).}
    {- {!Net}: peers, topologies, the discrete-event simulator.}
    {- {!Doc}: AXML documents, service calls, generic resources
       (Sections 2.2–2.3).}
    {- {!Algebra}: the expression language E, evaluation definitions,
       equivalence rules and the optimizer (Section 3).}
    {- {!Runtime}: the peer runtime executing expressions over the
       simulated network (Section 3.2).}
    {- {!Workload}: synthetic data, query fuzzers and the scenario
       builders used by examples and benchmarks.}
    {- {!Obs}: causal tracing, per-peer metrics and the Chrome-trace /
       JSONL exporters (DESIGN.md §10).}} *)

module Xml = struct
  module Label = Axml_xml.Label
  module Node_id = Axml_xml.Node_id
  module Tree = Axml_xml.Tree
  module Forest = Axml_xml.Forest
  module Parser = Axml_xml.Parser
  module Serializer = Axml_xml.Serializer
  module Canonical = Axml_xml.Canonical
  module Path = Axml_xml.Path
  module Index = Axml_xml.Index
end

module Schema = struct
  module Content_model = Axml_schema.Content_model
  module Schema = Axml_schema.Schema
  module Validate = Axml_schema.Validate
  module Signature = Axml_schema.Signature
end

module Query = struct
  module Ast = Axml_query.Ast
  module Parser = Axml_query.Parser
  module Eval = Axml_query.Eval
  module Compile = Axml_query.Compile
  module Compose = Axml_query.Compose
  module Incremental = Axml_query.Incremental
  module Qcache = Axml_query.Qcache
  module Selectivity = Axml_query.Selectivity
  module Relevance = Axml_query.Relevance
  module Optimize = Axml_query.Optimize
  module Typecheck = Axml_query.Typecheck
end

module Net = struct
  module Peer_id = Axml_net.Peer_id
  module Link = Axml_net.Link
  module Topology = Axml_net.Topology
  module Sim = Axml_net.Sim
  module Stats = Axml_net.Stats
  module Pqueue = Axml_net.Pqueue
  module Rng = Axml_net.Rng
  module Fault = Axml_net.Fault
end

module Doc = struct
  module Names = Axml_doc.Names
  module Service = Axml_doc.Service
  module Sc = Axml_doc.Sc
  module Document = Axml_doc.Document
  module Store = Axml_doc.Store
  module Registry = Axml_doc.Registry
  module Generic = Axml_doc.Generic
  module Equivalence = Axml_doc.Equivalence
  module Signature_check = Axml_doc.Signature_check
end

module Algebra = struct
  module Expr = Axml_algebra.Expr
  module Expr_xml = Axml_algebra.Expr_xml
  module Cost = Axml_algebra.Cost
  module Rewrite = Axml_algebra.Rewrite
  module Optimizer = Axml_algebra.Optimizer
  module Planner = Axml_algebra.Planner
end

module Runtime = struct
  module Message = Axml_peer.Message
  module Codec = Axml_peer.Codec
  module Transport = Axml_peer.Transport
  module Peer = Axml_peer.Peer
  module System = Axml_peer.System
  module Exec = Axml_peer.Exec
  module Lazy_eval = Axml_peer.Lazy_eval
  module Type_driven = Axml_peer.Type_driven
  module Persist = Axml_peer.Persist
  module Failover = Axml_peer.Failover
  module Placement = Axml_peer.Placement
  module Profiler = Axml_peer.Profiler
end

module Obs = struct
  module Trace = Axml_obs.Trace
  module Metrics = Axml_obs.Metrics
  module Timeseries = Axml_obs.Timeseries
  module Exporter = Axml_obs.Exporter
end

module Workload = struct
  module Rng = Axml_workload.Rng
  module Xml_gen = Axml_workload.Xml_gen
  module Xmark = Axml_workload.Xmark
  module Query_gen = Axml_workload.Query_gen
  module Scenarios = Axml_workload.Scenarios
end
