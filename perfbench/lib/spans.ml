(* The span recorder of traced runs: preallocated parallel arrays, one
   slot per span (name, start, end, parent slot, trace id). A span whose
   slot would overflow the capacity is counted as dropped, never
   allocated. Names are shared string constants, so recording stores a
   pointer and allocates nothing. *)

type t = {
  name : string array;
  start : int array;
  stop : int array;
  parent : int array;
  trace : int array;
  mutable n : int;
  mutable dropped : int;
}

let create cap =
  {
    name = Array.make cap "";
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap (-1);
    trace = Array.make cap 0;
    n = 0;
    dropped = 0;
  }

let length t = t.n
let dropped t = t.dropped

(* Records a span and returns its slot, or [-1] when full. *)
let add t ~name ~start ~stop ?(parent = -1) ~trace () =
  if t.n = Array.length t.name then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    let i = t.n in
    t.name.(i) <- name;
    t.start.(i) <- start;
    t.stop.(i) <- stop;
    t.parent.(i) <- parent;
    t.trace.(i) <- trace;
    t.n <- i + 1;
    i
  end

(* Closes a span opened with a provisional end; a no-op on [-1]. *)
let finish t i ~stop = if i >= 0 then t.stop.(i) <- stop

(* Self time of an interval: its length minus the part of it that the
   union of the child intervals covers. Children may nest, overlap each
   other or stick out of the parent; only the covered part inside the
   parent is subtracted. *)
let self_ns ~start ~stop children =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a start and b = min b stop in
        if b > a then Some (a, b) else None)
      children
    |> List.sort compare
  in
  let covered, run =
    List.fold_left
      (fun (acc, run) (a, b) ->
        match run with
        | None -> (acc, Some (a, b))
        | Some (rs, re) when a <= re -> (acc, Some (rs, max re b))
        | Some (rs, re) -> (acc + (re - rs), Some (a, b)))
      (0, None) clipped
  in
  let covered =
    match run with Some (rs, re) -> covered + (re - rs) | None -> covered
  in
  stop - start - covered

let write_jsonl t path =
  let oc = open_out path in
  for i = 0 to t.n - 1 do
    Printf.fprintf oc
      "{\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"trace\":%d}\n"
      t.name.(i) t.start.(i) t.stop.(i) t.parent.(i) t.trace.(i)
  done;
  close_out oc
