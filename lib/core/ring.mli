(** A rotation: elements in a cyclic order, and a cursor where the next
    scan starts. The switch keeps its weighted round-robin over in-links
    in one; [find] reads one array cell per element it passes. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int

val add : 'a t -> 'a -> unit
(** [add r x] puts [x] last in scan order, just behind the cursor. *)

val remove : 'a t -> 'a -> unit
(** [remove r x] drops [x] (compared with [==]); the cursor stays on its
    element, or moves to the next one if that was [x]. *)

val clear : 'a t -> unit

val find : 'a t -> ('a -> bool) -> 'a option
(** [find r p] tests the elements in scan order and moves the cursor
    onto the first that satisfies [p]; the cursor stays put when none
    does. Elements that [p] adds are not tested; [p] must not remove
    any. *)

val advance : 'a t -> unit
(** Moves the cursor one on, sending its element to the back. *)
