(** A binary min-heap, keyed by [(float, int)] pairs.

    Used as the simulator event queue: the float is the firing time and
    the int a monotonically increasing sequence number, so events with
    equal times pop in insertion order (deterministic replay). [push],
    [min_time] and [take] allocate nothing, and the heap keeps no
    removed value alive. *)

type 'a t

val create : unit -> 'a t

val size : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:float -> seq:int -> 'a -> unit

val min_time : 'a t -> float
(** The minimum element's time.
    @raise Invalid_argument when empty. *)

val take : 'a t -> 'a
(** Removes the minimum element, returning its value.
    @raise Invalid_argument when empty. *)

val pop : 'a t -> (float * int * 'a) option
(** Removes and returns the minimum element, or [None] when empty. *)

val peek : 'a t -> (float * int * 'a) option
