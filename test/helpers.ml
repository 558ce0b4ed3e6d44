(* Shared helpers for the test suites. *)

open Axml

let gen () = Xml.Node_id.Gen.create ~namespace:"test"

let parse ?(g = gen ()) s = Xml.Parser.parse_exn ~gen:g s

let elt ?attrs g name kids = Xml.Tree.element_of_string ?attrs ~gen:g name kids
let txt s = Xml.Tree.text s

let tree_eq = Alcotest.testable Xml.Tree.pp Xml.Canonical.equal

let forest_eq =
  Alcotest.testable
    (Fmt.Dump.list Xml.Tree.pp)
    Xml.Canonical.equal_forest

let query s = Query.Parser.parse_exn s

let peer = Net.Peer_id.of_string

let mesh ?(latency = 10.0) ?(bandwidth = 100.0) names =
  Net.Topology.full_mesh
    ~link:(Net.Link.make ~latency_ms:latency ~bandwidth_bytes_per_ms:bandwidth)
    (List.map peer names)

let check_canonical_forests msg a b =
  Alcotest.(check bool) msg true (Xml.Canonical.equal_forest a b)

(* Evaluate a query on XML snippets, compare with expected XML forest. *)
let eval_query_on ~q ~inputs ~expect =
  let g = gen () in
  let input_forests =
    List.map (fun xml -> Result.get_ok (Xml.Parser.parse_forest ~gen:g xml)) inputs
  in
  let out = Query.Eval.eval ~gen:g (query q) input_forests in
  let expected = Result.get_ok (Xml.Parser.parse_forest ~gen:g expect) in
  check_canonical_forests "query output" expected out

(* Run [f] with every correlation traced from an empty trace; tracing
   is cleared and off again afterwards, also when [f] raises. *)
let with_tracing f =
  Obs.Trace.set_enabled true;
  Obs.Trace.clear ();
  Obs.Trace.set_sampling ~keep_one_in:1 ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_enabled false;
      Obs.Trace.clear ())
    f

(* The transmissions traced so far: one per [xfer] span. *)
let xfers () = Net.Sim.xfers (Obs.Trace.events ())
