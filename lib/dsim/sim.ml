(* [fn] is [ignore] once the event has fired or been cancelled, so a
   kept handle does not keep its closure alive. *)
type handle = { mutable dead : bool; mutable fn : unit -> unit }

type t = {
  mutable clock : float;
  mutable seq : int;
  mutable fired : int;
  queue : handle Heap.t;
  random : Random.State.t;
}

let create ?(seed = 42) () =
  {
    clock = 0.;
    seq = 0;
    fired = 0;
    queue = Heap.create ();
    random = Random.State.make [| seed |];
  }

let now t = t.clock
let rng t = t.random

let schedule_at t ~time f =
  if not (Float.is_finite time) then invalid_arg "Sim.schedule_at: time";
  if time < t.clock then invalid_arg "Sim.schedule_at: time in the past";
  let h = { dead = false; fn = f } in
  Heap.push t.queue ~time ~seq:t.seq h;
  t.seq <- t.seq + 1;
  h

let schedule t ~delay f =
  if delay < 0. || not (Float.is_finite delay) then
    invalid_arg "Sim.schedule: delay";
  schedule_at t ~time:(t.clock +. delay) f

let cancel _t h =
  h.dead <- true;
  h.fn <- ignore

let cancelled h = h.dead

let every t ~period ?(jitter = 0.) f =
  if period <= 0. then invalid_arg "Sim.every: period";
  if jitter < 0. || jitter >= period then invalid_arg "Sim.every: jitter";
  (* The outer handle stays valid across re-arms: each firing checks it
     and re-schedules itself, so cancelling the outer handle stops the
     recurrence even though inner events keep their own handles. *)
  let outer = { dead = false; fn = ignore } in
  let next_delay () =
    if jitter = 0. then period
    else period -. jitter +. Random.State.float t.random (2. *. jitter)
  in
  let rec arm () =
    if not outer.dead then
      ignore
        (schedule t ~delay:(next_delay ()) (fun () ->
             if not outer.dead then begin
               f ();
               arm ()
             end))
  in
  arm ();
  outer

let run ?until ?max_events t =
  let budget = ref (match max_events with Some n -> n | None -> max_int) in
  let limit = match until with Some u -> u | None -> infinity in
  let continue = ref true in
  while !continue && !budget > 0 do
    if Heap.is_empty t.queue || Heap.min_time t.queue > limit then
      continue := false
    else begin
      t.clock <- Heap.min_time t.queue;
      let h = Heap.take t.queue in
      if not h.dead then begin
        let f = h.fn in
        h.fn <- ignore;
        t.fired <- t.fired + 1;
        decr budget;
        f ()
      end
    end
  done;
  match until with
  | Some u when not !continue -> t.clock <- Float.max t.clock u
  | _ -> ()

let pending t = Heap.size t.queue
let events_fired t = t.fired
