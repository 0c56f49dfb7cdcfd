type 'a t = { mutable items : 'a array; mutable pos : int }

let create () = { items = [||]; pos = 0 }
let length r = Array.length r.items

(* Membership changes rebuild the array: they are rare (a link opens or
   closes), and an exact-size array holds no stale element. *)
let add r x =
  let n = length r and p = r.pos in
  r.items <- Array.init (n + 1) (fun i -> if i = p then x else r.items.(if i < p then i else i - 1));
  r.pos <- (p + 1) mod (n + 1)

let remove r x =
  let n = length r in
  let rec index i = if i = n || r.items.(i) == x then i else index (i + 1) in
  let j = index 0 in
  if j < n then begin
    r.items <- Array.init (n - 1) (fun i -> r.items.(if i < j then i else i + 1));
    if j < r.pos then r.pos <- r.pos - 1;
    if r.pos >= n - 1 then r.pos <- 0
  end

let clear r =
  r.items <- [||];
  r.pos <- 0

let advance r = if length r > 0 then r.pos <- (r.pos + 1) mod length r

(* [p] may add elements, which keep every element's distance from the
   cursor, so [k] stays valid across calls to [p]. *)
let find r p =
  let n = length r in
  let rec scan k =
    if k = n then None
    else
      let x = r.items.((r.pos + k) mod length r) in
      if p x then begin
        r.pos <- (r.pos + k) mod length r;
        Some x
      end
      else scan (k + 1)
  in
  scan 0
