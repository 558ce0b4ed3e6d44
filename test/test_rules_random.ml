(* Randomized rule preservation: the fixed-plan suite
   (test_rules_exec.ml) is complemented here by fuzzing — random
   documents, random selection/join plans, and a random sample of the
   rewrites applicable anywhere in each plan.  Every sampled rewrite
   must preserve emitted results and the Σ fingerprint. *)

open Axml
open Helpers
module Expr = Algebra.Expr
module System = Runtime.System
module Exec = Runtime.Exec

let p1 = peer "p1"
let p2 = peer "p2"
let p3 = peer "p3"
let all_peers = [ p1; p2; p3 ]

(* A deterministic system derived from the seed: catalogs of varying
   shape on p2 and p3, a declarative service on p2. *)
let build_system seed =
  let sys = System.create (mesh ~latency:10.0 ~bandwidth:100.0 [ "p1"; "p2"; "p3" ]) in
  List.iteri
    (fun i p ->
      let rng = Workload.Rng.create ~seed:(seed + i) in
      let g = System.gen_of sys p in
      System.add_document sys p ~name:"cat"
        (Workload.Xml_gen.catalog ~gen:g ~rng
           ~items:(20 + Workload.Rng.int rng 30)
           ~selectivity:(0.05 +. Workload.Rng.float rng 0.4)
           ()))
    [ p2; p3 ];
  System.add_service sys p2
    (Doc.Service.declarative ~name:"wanted"
       (Workload.Xml_gen.selection_query ()));
  sys

(* A random plan from a family known to terminate: selections, joins
   and service calls over the stored catalogs. *)
let random_plan rng =
  let sel = Workload.Xml_gen.selection_query () in
  let datap = Workload.Rng.pick rng [ "p2"; "p3" ] in
  match Workload.Rng.int rng 5 with
  | 0 -> Expr.query_at sel ~at:p1 ~args:[ Expr.doc "cat" ~at:datap ]
  | 1 ->
      Expr.query_at
        (query
           {|query(2) for $x in $0//item, $y in $1//item
             where attr($x, "category") = "wanted" and attr($y, "category") = "wanted"
             return <pair>{attr($x, "id")}{attr($y, "id")}</pair>|})
        ~at:p1
        ~args:[ Expr.doc "cat" ~at:"p2"; Expr.doc "cat" ~at:"p3" ]
  | 2 -> Expr.send_to_peer p1 (Expr.doc "cat" ~at:datap)
  | 3 ->
      Expr.query_at
        (query "query(1) for $h in $0 return <w>{$h}</w>")
        ~at:p1
        ~args:
          [
            Expr.sc
              (Doc.Sc.make ~provider:(Doc.Names.At p2) ~service:"wanted"
                 [
                   [
                     Workload.Xml_gen.catalog
                       ~gen:(Xml.Node_id.Gen.create ~namespace:"prm")
                       ~rng ~items:15 ~selectivity:0.3 ();
                   ];
                 ])
              ~at:p1;
          ]
  | _ ->
      Expr.send_as_doc ~name:"copy" ~at:p1
        (Expr.query_at sel ~at:p1 ~args:[ Expr.doc "cat" ~at:datap ])

let execute seed plan =
  let sys = build_system seed in
  let out = Exec.run_to_quiescence sys ~ctx:p1 plan in
  (out, System.fingerprint sys)

let preservation seed =
  let rng = Workload.Rng.create ~seed in
  let plan = random_plan rng in
  let reference, ref_fp = execute seed plan in
  if not reference.finished then false
  else begin
    let n = ref 0 in
    let fresh () =
      incr n;
      Printf.sprintf "_tmp_rr%d" !n
    in
    let rewrites = Algebra.Rewrite.everywhere ~peers:all_peers ~fresh plan in
    (* Sample up to 6 rewrites deterministically. *)
    let sampled =
      List.filteri (fun i _ -> i mod max 1 (List.length rewrites / 6) = 0) rewrites
    in
    List.for_all
      (fun (r : Algebra.Rewrite.rewrite) ->
        let out, fp = execute seed r.result in
        out.finished
        && Xml.Canonical.equal_forest reference.results out.results
        && String.equal ref_fp fp)
      sampled
  end

let prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25 ~name:"random plans: rewrites preserve results and Σ"
       (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
       preservation)

let suite = [ prop ]
