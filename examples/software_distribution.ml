(* The software-distribution application of the paper's introduction
   (the eDos use case), rebuilt on the simulator: mirrors replicate a
   package catalog (a generic document class), expose a declarative
   dependency resolver, and publish update feeds; a client resolves
   packages against *any* mirror and subscribes to updates.

     dune exec examples/software_distribution.exe *)

open Axml
module Scenarios = Workload.Scenarios
module System = Runtime.System
module Expr = Algebra.Expr
module Names = Doc.Names

let () =
  let sd =
    Scenarios.software_distribution ~mirrors:3 ~packages:40
      ~deps_per_package:3 ~seed:2026 ()
  in
  let sys = sd.sd_system in
  Format.printf "mirrors: %s@."
    (String.concat ", " (List.map Net.Peer_id.to_string sd.sd_mirrors));

  (* --- 1. Resolve a request against a specific mirror ----------- *)
  let wanted = [ List.nth sd.sd_packages 5; List.nth sd.sd_packages 21 ] in
  Format.printf "@.resolving %s against mirror0@."
    (String.concat ", " wanted);
  let request = Scenarios.resolution_request sd ~at:sd.sd_client ~wanted in
  let mirror0 = List.hd sd.sd_mirrors in
  let catalog_of m =
    match System.find_document sys m "packages" with
    | Some d -> Doc.Document.root d
    | None -> failwith "mirror lost its catalog"
  in
  let sc =
    Doc.Sc.make ~provider:(Names.At mirror0) ~service:sd.sd_resolve
      [ [ request ]; [ catalog_of mirror0 ] ]
  in
  let out =
    Runtime.Exec.run_to_quiescence sys ~ctx:sd.sd_client
      (Expr.sc sc ~at:sd.sd_client)
  in
  List.iter
    (fun t ->
      List.iter
        (fun pkg ->
          Format.printf "  resolved %s-%s@."
            (Option.value ~default:"?" (Xml.Tree.attr pkg "name"))
            (Option.value ~default:"?" (Xml.Tree.attr pkg "version")))
        (Xml.Path.select (Xml.Path.of_string "/package") t))
    out.results;
  Format.printf "  (%d bytes, %.1f ms simulated)@." out.stats.bytes
    out.elapsed_ms;

  (* --- 2. Resolve against the *generic* catalog: pickDoc chooses a
     mirror (definition (9)); Nearest beats First on this topology. *)
  let resolver =
    Query.Parser.parse_exn
      {|query(2) for $w in $0//want, $p in $1//package
        where attr($w, "name") = attr($p, "name")
        return <resolved>{$p}</resolved>|}
  in
  let generic_plan =
    Expr.query_at resolver ~at:sd.sd_client
      ~args:
        [
          Expr.tree_at
            (Scenarios.resolution_request sd ~at:sd.sd_client ~wanted)
            ~at:sd.sd_client;
          Expr.doc_any sd.sd_catalog_class;
        ]
  in
  List.iter
    (fun (name, policy) ->
      (System.peer sys sd.sd_client).Runtime.Peer.policy <- policy;
      let out = Runtime.Exec.run_to_quiescence sys ~ctx:sd.sd_client generic_plan in
      Format.printf "@.pick policy %-12s -> %d results, %d bytes, %.1f ms@."
        name (List.length out.results) out.stats.bytes out.elapsed_ms)
    [
      ("First", Doc.Generic.First);
      ("Random", Doc.Generic.Random 42);
      ( "Nearest",
        Doc.Generic.Nearest
          {
            from = sd.sd_client;
            topology = Net.Sim.topology (System.sim sys);
            probe_bytes = 4096;
          } );
    ];

  (* --- 3. Subscribe to a mirror's update feed, then publish ----- *)
  Format.printf "@.subscribing to mirror0's update feed@.";
  let g = System.gen_of sys sd.sd_client in
  let inbox = Xml.Tree.element_of_string ~gen:g "inbox" [] in
  let inbox_id = Option.get (Xml.Tree.id inbox) in
  System.add_document sys sd.sd_client ~name:"updates_inbox" inbox;
  let feed_sc =
    Doc.Sc.make
      ~forward:[ Names.Node_ref.make ~node:inbox_id ~peer:sd.sd_client ]
      ~provider:(Names.At mirror0) ~service:"update_feed" []
  in
  ignore
    (Runtime.Exec.run_to_quiescence sys ~ctx:sd.sd_client
       (Expr.sc feed_sc ~at:sd.sd_client));
  (* A new package version lands in mirror0's updates document. *)
  let m0 = System.peer sys mirror0 in
  let updates =
    Option.get (Doc.Store.find_by_string m0.Runtime.Peer.store "updates")
  in
  let update_node = Option.get (Xml.Tree.id (Doc.Document.root updates)) in
  let gm = System.gen_of sys mirror0 in
  System.send sys ~src:mirror0 ~dst:mirror0
    (Runtime.Message.Insert
       {
         node = update_node;
         forest =
           [
             Xml.Tree.element_of_string ~gen:gm "update"
               ~attrs:[ ("package", List.hd sd.sd_packages); ("version", "2.0") ]
               [];
           ];
         notify = None;
       });
  ignore (System.run sys);
  (match System.find_document sys sd.sd_client "updates_inbox" with
  | Some doc ->
      Format.printf "client inbox after publish:@.%s@."
        (Doc.Document.to_xml_string doc)
  | None -> assert false);
  Format.printf "total simulated time: %.1f ms@." (System.now_ms sys)
