module Alg = Iov_core.Algorithm
module Ialg = Iov_core.Ialgorithm
module Msg = Iov_msg.Message
module Mt = Iov_msg.Mtype
module NI = Iov_msg.Node_id

type dest = {
  dst : NI.t;
  index : int;
  mutable cursor : int; (* next sequence number of this stream *)
}

type t = {
  app : int;
  payload_size : int;
  pacing : [ `Backtoback | `Rate of float ];
  mode : [ `Copy | `Split ];
  auto : bool;
  make_payload : dest_index:int -> seq:int -> Bytes.t;
  mutable dests : dest list;
  mutable running : bool;
  mutable total_sent : int;
  mutable timer_armed : bool;
}

let default_payload size ~dest_index:_ ~seq:_ = Bytes.make size 'x'

let create ?(auto = true) ?(pacing = `Backtoback) ?(mode = `Copy)
    ?(payload_size = 5 * 1024) ?make_payload ~app ~dests () =
  if payload_size <= 0 then invalid_arg "Source.create: payload_size";
  let make_payload =
    match make_payload with
    | Some f -> f
    | None -> default_payload payload_size
  in
  {
    app;
    payload_size;
    pacing;
    mode;
    auto;
    make_payload;
    dests = List.mapi (fun index dst -> { dst; index; cursor = 0 }) dests;
    running = false;
    total_sent = 0;
    timer_armed = false;
  }

let sent t = t.total_sent
let deployed t = t.running

let set_dests t dests =
  t.dests <- List.mapi (fun index dst -> { dst; index; cursor = 0 }) dests

let add_dest t dst =
  if not (List.exists (fun d -> NI.equal d.dst dst) t.dests) then
    t.dests <- t.dests @ [ { dst; index = List.length t.dests; cursor = 0 } ]

let stop t = t.running <- false

(* The sequence number of destination [d]'s next message. In copy mode
   every stream shares numbering; in split mode destination [i] of [n]
   carries generations i, i+n, i+2n, ... *)
let next_seq t d =
  match t.mode with
  | `Copy -> d.cursor
  | `Split -> d.index + (d.cursor * List.length t.dests)

(* The stream advances before [send]: the simulator's send may start the
   transmission at once and call [on_ready] from inside it, which emits
   the next message. *)
let emit t (ctx : Alg.ctx) d =
  let seq = next_seq t d in
  d.cursor <- d.cursor + 1;
  t.total_sent <- t.total_sent + 1;
  let payload = t.make_payload ~dest_index:d.index ~seq in
  let m = Msg.data ~origin:ctx.self ~app:t.app ~seq payload in
  ctx.send m d.dst

(* Back-to-back: each connection runs as fast as its sender buffer
   drains, independent of the other destinations. *)
let generate_for t (ctx : Alg.ctx) d =
  if t.running then
    while ctx.can_send d.dst && t.running do
      emit t ctx d
    done

let generate_all t ctx = List.iter (generate_for t ctx) t.dests

let rec arm_timer t (ctx : Alg.ctx) rate =
  if not t.timer_armed then begin
    t.timer_armed <- true;
    let interval = float_of_int t.payload_size /. rate in
    ctx.set_timer interval (fun () ->
        t.timer_armed <- false;
        if t.running then begin
          (match t.mode with
          | `Copy -> List.iter (fun d -> emit t ctx d) t.dests
          | `Split -> (
            (* one generation per interval, to the next stripe *)
            match t.dests with
            | [] -> ()
            | dests ->
              let d =
                List.fold_left
                  (fun acc d -> if d.cursor < acc.cursor then d else acc)
                  (List.hd dests) dests
              in
              emit t ctx d));
          arm_timer t ctx rate
        end)
  end

let start t ctx =
  if not t.running then begin
    t.running <- true;
    match t.pacing with
    | `Backtoback -> generate_all t ctx
    | `Rate r -> arm_timer t ctx r
  end

let handle t (ctx : Alg.ctx) (m : Msg.t) =
  match m.Msg.mtype with
  | Mt.S_deploy when m.app = t.app ->
    start t ctx;
    Some Alg.Consume
  | Mt.S_terminate when m.app = t.app ->
    t.running <- false;
    Some Alg.Consume
  | _ -> None

let algorithm t =
  Ialg.make ~name:"source"
    ~on_start:(fun ctx -> if t.auto then start t ctx)
    ~on_ready:(fun ctx peer ->
      match t.pacing with
      | `Backtoback -> (
        match List.find_opt (fun d -> NI.equal d.dst peer) t.dests with
        | Some d -> generate_for t ctx d
        | None -> ())
      | `Rate _ -> ())
    (handle t)
