(* Seeded message payloads. Bytes 0-7 carry the sequence number and
   bytes 8-15 a clock stamp (the message's due time, {!Clock.now_ns});
   the rest is a body drawn from the seed. A receiver recomputes the
   body checksum and compares the stamped sequence number with the
   header's, so a corrupted, truncated or misrouted payload is caught. *)

let header = 16

type t = { template : Bytes.t; sum : int }

(* Position-dependent checksum of [b] from [off], eight bytes a step. *)
let checksum b ~off =
  let n = Bytes.length b in
  let h = ref 0 and i = ref off in
  while !i + 8 <= n do
    h := (!h * 31) + Int64.to_int (Bytes.get_int64_le b !i);
    i := !i + 8
  done;
  while !i < n do
    h := (!h * 31) + Char.code (Bytes.get b !i);
    incr i
  done;
  !h

let create ~seed ~size =
  if size < header then invalid_arg "Payload.create: size";
  let st = Random.State.make [| seed; size |] in
  let template = Bytes.init size (fun _ -> Char.chr (Random.State.int st 256)) in
  { template; sum = checksum template ~off:header }

let size t = Bytes.length t.template

let make t ~seq ~stamp =
  let b = Bytes.copy t.template in
  Bytes.set_int64_le b 0 (Int64.of_int seq);
  Bytes.set_int64_le b 8 (Int64.of_int stamp);
  b

let seq b = Int64.to_int (Bytes.get_int64_le b 0)
let stamp b = Int64.to_int (Bytes.get_int64_le b 8)

let valid t b ~seq:s =
  Bytes.length b = Bytes.length t.template
  && seq b = s
  && checksum b ~off:header = t.sum
