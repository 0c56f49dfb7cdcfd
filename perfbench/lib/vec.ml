(* A growable int array, written by exactly one thread during a trial
   and read only after that thread's work is joined or quiesced. *)
type t = { mutable a : int array; mutable n : int }

let create () = { a = Array.make 1024 0; n = 0 }

let push t x =
  if t.n = Array.length t.a then begin
    let a = Array.make (2 * t.n) 0 in
    Array.blit t.a 0 a 0 t.n;
    t.a <- a
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let length t = t.n
let get t i = t.a.(i)

(* Stamps keyed by a dense index (a traced message's [seq / stride]);
   [absent] marks a slot never written. *)
let absent = min_int

let set t i x =
  while i >= Array.length t.a do
    let a = Array.make (2 * Array.length t.a) absent in
    Array.blit t.a 0 a 0 t.n;
    t.a <- a
  done;
  if i >= t.n then begin
    Array.fill t.a t.n (i - t.n) absent;
    t.n <- i + 1
  end;
  t.a.(i) <- x

let find t i = if i < t.n then t.a.(i) else absent
let to_floats t ~scale = Array.init t.n (fun i -> float_of_int t.a.(i) *. scale)
