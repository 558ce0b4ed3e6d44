(** Priority queue of timestamped events.

    An array binary heap keyed by [(time, sequence)] — among equal
    times, insertion order wins, which makes simulator runs
    deterministic — with a FIFO fast path for runs of events sharing
    the current minimum time, and removable entries that leave the
    heap as soon as they are cancelled. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int
(** Live entries only: cancelled ones don't count. *)

val push : 'a t -> time:float -> 'a -> unit
(** @raise Invalid_argument if [time] is NaN. *)

val push_removable : 'a t -> time:float -> 'a -> unit -> unit
(** Like {!push}, but returns a cancel thunk.  Cancelling removes the
    entry from the heap at once, in O(log n): it is never returned by
    {!pop} and stops counting toward {!length} immediately.  A second
    cancel, or one after the entry was popped, is a no-op.
    @raise Invalid_argument if [time] is NaN. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event. *)

exception Empty

val take : 'a t -> 'a
(** {!pop} for hot loops: removes and returns the earliest event,
    leaving its timestamp readable via {!last_time}, with no option or
    pair allocated.  An event taken from the heap still boxes its
    timestamp into {!last_time}'s float field (2 words); one taken
    from the same-time ring allocates nothing.
    @raise Empty when the queue has no live entries. *)

val last_time : 'a t -> float
(** Timestamp of the event most recently removed by {!take}. *)

val peek_time : 'a t -> float option
