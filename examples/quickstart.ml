(* Quickstart: two peers, one document, one declarative service, one
   AXML service call — the minimal tour of the framework.

     dune exec examples/quickstart.exe *)

open Axml

let () =
  (* 1. A two-peer network: 10 ms latency, 100 B/ms bandwidth. *)
  let alice = Net.Peer_id.of_string "alice" in
  let bob = Net.Peer_id.of_string "bob" in
  let topology =
    Net.Topology.full_mesh
      ~link:(Net.Link.make ~latency_ms:10.0 ~bandwidth_bytes_per_ms:100.0)
      [ alice; bob ]
  in
  let sys = Runtime.System.create topology in

  (* 2. Bob hosts an XML document. *)
  Runtime.System.load_document sys bob ~name:"library"
    ~xml:
      {|<library>
          <book year="1994"><title>Foundations of Databases</title></book>
          <book year="1999"><title>Principles of Distributed Database Systems</title></book>
          <book year="2011"><title>Web Data Management</title></book>
        </library>|};

  (* 3. Bob also offers a declarative service: recent books.  Its
     implementing query is visible to other peers, which is what lets
     the algebra optimize across it. *)
  let recent =
    Query.Parser.parse_exn
      {|query(1) for $b in $0//book where attr($b, "year") >= 1999
        return <recent>{$b}</recent>|}
  in
  Runtime.System.add_service sys bob
    (Doc.Service.declarative ~name:"recent_books" recent);

  (* 4. Alice embeds a service call in one of her documents — Active
     XML's defining feature — and activates it.  The response
     accumulates as siblings of the <sc> element. *)
  Runtime.System.load_document sys alice ~name:"reading_list"
    ~xml:
      {|<reading_list>
          <sc><peer>bob</peer><service>recent_books</service>
              <param1><library>
                <book year="2001"><title>A first taste of XML</title></book>
                <book year="1989"><title>Old tome</title></book>
              </library></param1>
          </sc>
        </reading_list>|};
  let activated = Runtime.System.activate_all sys () in
  Format.printf "activated %d service call(s)@." activated;
  ignore (Runtime.System.run sys);

  (match Runtime.System.find_document sys alice "reading_list" with
  | Some doc ->
      Format.printf "alice's reading list after the call:@.%s@."
        (Doc.Document.to_xml_string doc)
  | None -> assert false);

  (* 5. The same computation as an algebra expression: apply Bob's
     query to Bob's document, from Alice's point of view — then let
     the optimizer find a cheaper equivalent plan. *)
  let plan =
    Algebra.Expr.query_at recent ~at:alice
      ~args:[ Algebra.Expr.doc "library" ~at:"bob" ]
  in
  let env =
    Algebra.Cost.default_env
      ~doc_bytes:(fun _ ->
        match Runtime.System.find_document sys bob "library" with
        | Some d -> Doc.Document.byte_size d
        | None -> 4096)
      topology
  in
  let result =
    Algebra.Optimizer.optimize ~env ~ctx:alice
      (Algebra.Optimizer.Best_first { max_expansions = 4 })
      plan
  in
  Format.printf "@.naive plan:     %a@." Algebra.Expr.pp plan;
  Format.printf "optimized plan: %a@." Algebra.Expr.pp result.plan;
  Format.printf "estimated cost: %a -> %a@." Algebra.Cost.pp
    result.initial_cost Algebra.Cost.pp result.cost;

  (* 6. Execute both and compare what actually crossed the wire. *)
  let naive_out = Runtime.Exec.run_to_quiescence sys ~ctx:alice plan in
  let opt_out = Runtime.Exec.run_to_quiescence sys ~ctx:alice result.plan in
  Format.printf "@.measured: naive %d bytes / optimized %d bytes@."
    naive_out.stats.bytes opt_out.stats.bytes;
  Format.printf "same answers: %b (%d results)@."
    (Xml.Canonical.equal_forest naive_out.results opt_out.results)
    (List.length naive_out.results)
