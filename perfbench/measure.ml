(* Timing, memory and percentile rules shared by every workload. *)

(* One GC configuration for every workload: the simulation-scale
   nursery the experiment harness uses, so the ~10^3 requests in flight
   die young instead of being promoted. *)
let nursery_words = 8 * 1024 * 1024

let configure_gc () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = nursery_words };
  (* Touch every page of the new nursery once, so the first timed
     phase does not pay the page faults. *)
  for i = 1 to 2 * nursery_words / 3 do
    ignore (Sys.opaque_identity (ref i))
  done;
  Gc.compact ()

let gc_config () =
  let g = Gc.get () in
  Printf.sprintf "minor_heap_words=%d space_overhead=%d ocaml=%s"
    g.Gc.minor_heap_size g.Gc.space_overhead Sys.ocaml_version

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* Process CPU seconds spent in [f]: the run is pure CPU, and process
   time leaves out the hypervisor steal that the wall clock includes. *)
let cpu f =
  let t0 = Sys.time () in
  let x = f () in
  (x, Sys.time () -. t0)

module Int_map = Map.Make (Int)

(* A fixed mix of small allocations, sorting and map building that
   shares no code with the program under test.  Every block it makes is
   small and dies young (about 1 M words, well inside the nursery), so
   run after [Gc.compact] it does no major-GC work, and the program's
   heap does not slow it. *)
let calibration_kernel () =
  let keys = List.init 50_000 (fun i -> ((i * 7919) land 0xFFFF, string_of_int i)) in
  let m =
    List.fold_left (fun m (k, v) -> Int_map.add k v m) Int_map.empty (List.sort compare keys)
  in
  let sum = Int_map.fold (fun k v acc -> acc + k + String.length v) m 0 in
  ignore (Sys.opaque_identity sum)

(* CPU speed drifts by tens of percent for minutes at a time on shared
   VMs, which no median within one run removes.  Each instance therefore
   also times the calibration kernel next to its run phase, and its CPU
   times are rescaled to a machine on which the kernel takes
   [reference_kernel_s]. *)
let reference_kernel_s = 0.045

let calibrate () =
  Gc.compact ();
  let (), s = cpu calibration_kernel in
  Gc.compact ();
  s

let normalise ~kernel_s t = t *. reference_kernel_s /. kernel_s

let median = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

type percentile = {
  value : float;  (** [nan] without samples. *)
  samples : int;
  beyond : int;  (** Samples ranked above the percentile's rank. *)
}

(* Nearest-rank percentile. *)
let percentile ~q samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then { value = nan; samples = 0; beyond = 0 }
  else
    let rank =
      max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1))
    in
    { value = a.(rank); samples = n; beyond = n - 1 - rank }

(* A tail percentile is reported only with at least ten samples ranked
   beyond it: a p99 needs at least 1000 samples. *)
let reportable p = p.beyond >= 10
