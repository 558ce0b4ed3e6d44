(* Priority queue of timestamped events, keyed by [(time, sequence)]:
   among equal times, insertion order wins, which makes simulator runs
   deterministic.

   The representation is built for the simulator's hot loop (millions
   of push/pop pairs per run):

   - a binary min-heap over parallel arrays — an unboxed [float array]
     of times, an [int array] of sequence numbers and a value array —
     so a push is three stores and a sift, with no per-node
     allocation (the previous pairing heap allocated a node and a
     list cell per push).  A sift moves a hole, not the entry: each
     entry it displaces is written once, one level over, and the
     sifted entry is written once, where it stops;

   - a monotonic same-time fast path: a FIFO ring holding a run of
     events that share the current minimum time.  The ring is
     established only when it is empty and the incoming time is
     strictly below the heap minimum (equal times must go to the heap,
     where earlier sequence numbers already live); while it is
     non-empty, pushes at exactly its time append to it and pops drain
     it before the heap.  Because the total order is (time, seq), the
     split never reorders anything;

   - removable entries ({!push_removable}): each carries a cell that
     tracks its heap slot, so cancelling removes the entry at once in
     O(log n) — the last entry fills the slot and sifts up or down as
     the order requires.  Most retransmission and delayed-ack timers
     end cancelled; left in the heap to be skipped at the root, each
     would cost a full-height sift-down when its time came up. *)

type cell = { mutable pos : int }
(* A removable entry's heap slot; -1 once it has left the heap. *)

(* Shared by every non-removable entry; its [pos] is never read. *)
let no_cell = { pos = -2 }

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable cells : cell array;
  mutable size : int;  (** heap slots used *)
  mutable next_seq : int;
  mutable ring_vals : 'a array;
  mutable ring_head : int;
  mutable ring_len : int;
  mutable ring_time : float;  (** meaningful iff [ring_len > 0] *)
  mutable last_time : float;  (** timestamp of the last {!take}n event *)
}

exception Empty

let dummy : 'a. unit -> 'a = fun () -> Obj.magic 0

let create () =
  {
    times = Array.make 64 0.0;
    seqs = Array.make 64 0;
    vals = Array.make 64 (dummy ());
    cells = Array.make 64 no_cell;
    size = 0;
    next_seq = 0;
    ring_vals = Array.make 64 (dummy ());
    ring_head = 0;
    ring_len = 0;
    ring_time = 0.0;
    last_time = 0.0;
  }

let length t = t.size + t.ring_len
let is_empty t = length t = 0

(* --- heap primitives --------------------------------------------- *)

let before t i j =
  t.times.(i) < t.times.(j)
  || (t.times.(i) = t.times.(j) && t.seqs.(i) < t.seqs.(j))

(* Inlined so that a [time] read from the arrays reaches its slot
   unboxed; a call would box it. *)
let[@inline] set_slot t i ~time ~seq v cell =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.vals.(i) <- v;
  t.cells.(i) <- cell;
  if cell != no_cell then cell.pos <- i

let move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.vals.(dst) <- t.vals.(src);
  let c = t.cells.(src) in
  t.cells.(dst) <- c;
  if c != no_cell then c.pos <- dst

let grow t =
  let cap = Array.length t.times in
  let cap' = 2 * cap in
  let times = Array.make cap' 0.0 in
  Array.blit t.times 0 times 0 cap;
  t.times <- times;
  let seqs = Array.make cap' 0 in
  Array.blit t.seqs 0 seqs 0 cap;
  t.seqs <- seqs;
  let vals = Array.make cap' (dummy ()) in
  Array.blit t.vals 0 vals 0 cap;
  t.vals <- vals;
  let cells = Array.make cap' no_cell in
  Array.blit t.cells 0 cells 0 cap;
  t.cells <- cells

(* Fill the hole at slot [i] with the entry [(time, seq, v, c)],
   first moving down every ancestor the entry precedes.  Inlined like
   [set_slot]: [remove] passes a time read from the arrays. *)
let[@inline] sift_up t i ~time ~seq v c =
  let i = ref i and rising = ref true in
  while !rising && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = t.times.(p) in
    if time < pt || (time = pt && seq < t.seqs.(p)) then begin
      move t ~src:p ~dst:!i;
      i := p
    end
    else rising := false
  done;
  set_slot t !i ~time ~seq v c

(* Fill the hole at slot [i] with the entry now at slot [src] (outside
   the heap), first moving up every smaller child that precedes it. *)
let sift_down t i ~src =
  let time = t.times.(src) and seq = t.seqs.(src) in
  let v = t.vals.(src) and c = t.cells.(src) in
  let i = ref i and sinking = ref true in
  while !sinking do
    let l = (2 * !i) + 1 in
    if l >= t.size then sinking := false
    else begin
      let m = if l + 1 < t.size && before t (l + 1) l then l + 1 else l in
      let mt = t.times.(m) in
      if mt < time || (mt = time && t.seqs.(m) < seq) then begin
        move t ~src:m ~dst:!i;
        i := m
      end
      else sinking := false
    end
  done;
  set_slot t !i ~time ~seq v c

let heap_push t ~time ~seq v cell =
  if t.size = Array.length t.times then grow t;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) ~time ~seq v cell

(* Remove the entry at slot [i] (the caller has read what it needs):
   the last entry fills the hole and sifts whichever way the order
   requires. *)
let remove t i =
  let c = t.cells.(i) in
  if c != no_cell then c.pos <- -1;
  let last = t.size - 1 in
  t.size <- last;
  if i < last then
    if i > 0 && before t last ((i - 1) / 2) then
      sift_up t i ~time:t.times.(last) ~seq:t.seqs.(last) t.vals.(last)
        t.cells.(last)
    else sift_down t i ~src:last;
  t.vals.(last) <- dummy ();
  t.cells.(last) <- no_cell

(* --- ring primitives --------------------------------------------- *)

let ring_push t v =
  let cap = Array.length t.ring_vals in
  if t.ring_len = cap then begin
    let vals = Array.make (2 * cap) (dummy ()) in
    for k = 0 to t.ring_len - 1 do
      vals.(k) <- t.ring_vals.((t.ring_head + k) mod cap)
    done;
    t.ring_vals <- vals;
    t.ring_head <- 0
  end;
  t.ring_vals.((t.ring_head + t.ring_len) mod Array.length t.ring_vals) <- v;
  t.ring_len <- t.ring_len + 1

let ring_pop t =
  let v = t.ring_vals.(t.ring_head) in
  t.ring_vals.(t.ring_head) <- dummy ();
  t.ring_head <- (t.ring_head + 1) mod Array.length t.ring_vals;
  t.ring_len <- t.ring_len - 1;
  v

(* Spill the ring into the heap, oldest first, assigning fresh sequence
   numbers from the counter.  Exact because the heap holds no entry at
   [ring_time] while the ring is active (establishment requires a
   strictly smaller time), so only the ring's relative order matters —
   which fresh increasing seqs preserve — and future pushes draw even
   larger seqs. *)
let flush_ring t =
  let n = t.ring_len in
  for _ = 1 to n do
    let v = ring_pop t in
    let seq = t.next_seq in
    t.next_seq <- t.next_seq + 1;
    heap_push t ~time:t.ring_time ~seq v no_cell
  done

(* Whether the earliest event is the ring's head rather than the heap's
   root. *)
let ring_first t =
  t.ring_len > 0 && (t.size = 0 || t.ring_time <= t.times.(0))

(* --- public API --------------------------------------------------- *)

let push t ~time v =
  if Float.is_nan time then invalid_arg "Pqueue.push: NaN time";
  if t.ring_len > 0 && time = t.ring_time then begin
    t.next_seq <- t.next_seq + 1;
    ring_push t v
  end
  else begin
    let seq = t.next_seq in
    t.next_seq <- t.next_seq + 1;
    if t.ring_len = 0 && (t.size = 0 || time < t.times.(0)) then begin
      t.ring_time <- time;
      ring_push t v
    end
    else heap_push t ~time ~seq v no_cell
  end

let push_removable t ~time v =
  if Float.is_nan time then invalid_arg "Pqueue.push_removable: NaN time";
  (* Removable entries always live in the heap, where their cell can
     find them.  If the ring is active at exactly this time, it is
     flushed first so FIFO order across the two structures survives. *)
  if t.ring_len > 0 && time = t.ring_time then flush_ring t;
  let seq = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  let cell = { pos = -1 } in
  heap_push t ~time ~seq v cell;
  fun () -> if cell.pos >= 0 then remove t cell.pos

let pop t =
  if ring_first t then Some (t.ring_time, ring_pop t)
  else if t.size = 0 then None
  else begin
    let time = t.times.(0) and v = t.vals.(0) in
    remove t 0;
    Some (time, v)
  end

(* Pop for the simulator's hot loop: the minimum's timestamp is left in
   [last_time] (read it with {!last_time}) instead of being returned in
   a pair under an option.  Storing a time read from the unboxed
   [times] array into that float field boxes it, 2 words per pop from
   the heap; the ring's [ring_time] is already boxed and is shared. *)
let take t =
  if ring_first t then begin
    t.last_time <- t.ring_time;
    ring_pop t
  end
  else if t.size = 0 then raise Empty
  else begin
    t.last_time <- t.times.(0);
    let v = t.vals.(0) in
    remove t 0;
    v
  end

let last_time t = t.last_time

let peek_time t =
  if ring_first t then Some t.ring_time
  else if t.size = 0 then None
  else Some t.times.(0)
