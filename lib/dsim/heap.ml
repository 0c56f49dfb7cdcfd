(* Entries live in parallel arrays indexed by heap position, the times
   unboxed in a float array, so pushing and popping allocate nothing.
   Vacated value cells hold [hole ()], an immediate, so the heap keeps no
   removed value alive; every [vals] array is made from it, so it is
   never a flat float array and a float value is stored boxed. *)
type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable len : int;
}

let hole () = Obj.magic 0

let create () =
  { times = Array.make 16 0.; seqs = Array.make 16 0; vals = Array.make 16 (hole ()); len = 0 }

let size t = t.len
let is_empty t = t.len = 0

let grow t =
  let extend a fill =
    let b = Array.make (2 * t.len) fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.times <- extend t.times 0.;
  t.seqs <- extend t.seqs 0;
  t.vals <- extend t.vals (hole ())

(* Does the entry at [i] come before [(time, seq)]? *)
let[@inline] before t i time seq =
  t.times.(i) < time || (t.times.(i) = time && t.seqs.(i) < seq)

let[@inline] set t i time seq v =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.vals.(i) <- v

let[@inline] move t ~src ~dst = set t dst t.times.(src) t.seqs.(src) t.vals.(src)

let push t ~time ~seq v =
  if t.len = Array.length t.times then grow t;
  (* sift a hole up from the end, then fill it *)
  let i = ref t.len in
  t.len <- t.len + 1;
  while !i > 0 && not (before t ((!i - 1) / 2) time seq) do
    move t ~src:((!i - 1) / 2) ~dst:!i;
    i := (!i - 1) / 2
  done;
  set t !i time seq v

let min_time t = if t.len = 0 then invalid_arg "Heap.min_time: empty" else t.times.(0)

let take t =
  if t.len = 0 then invalid_arg "Heap.take: empty";
  let top = t.vals.(0) and n = t.len - 1 in
  let time = t.times.(n) and seq = t.seqs.(n) and last = t.vals.(n) in
  t.len <- n;
  t.vals.(n) <- hole ();
  (* sift a hole down from the root, then put the last entry in it *)
  let i = ref 0 and sifting = ref (n > 0) in
  while !sifting do
    let l = (2 * !i) + 1 in
    let c = if l + 1 < n && before t (l + 1) t.times.(l) t.seqs.(l) then l + 1 else l in
    if c < n && before t c time seq then begin
      move t ~src:c ~dst:!i;
      i := c
    end
    else sifting := false
  done;
  if n > 0 then set t !i time seq last;
  top

let peek t = if t.len = 0 then None else Some (t.times.(0), t.seqs.(0), t.vals.(0))

let pop t =
  if t.len = 0 then None
  else
    let time = t.times.(0) and seq = t.seqs.(0) in
    Some (time, seq, take t)
