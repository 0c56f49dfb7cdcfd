module Sim = Iov_dsim.Sim
module Rsrc = Iov_dsim.Rsrc
module Meter = Iov_stats.Meter
module NI = Iov_msg.Node_id
module Msg = Iov_msg.Message
module Mt = Iov_msg.Mtype
module Wire = Iov_msg.Wire
module Status = Iov_msg.Status
module Tel = Iov_telemetry.Telemetry
module Tracer = Iov_telemetry.Tracer
module Ev = Iov_telemetry.Event
module Metrics = Iov_telemetry.Metrics

let src_log = Logs.Src.create "iov.network" ~doc:"iOverlay simulated runtime"

module Log = (val Logs.src_log src_log)

(* How many transmissions may be reserved ahead on one link. Keeps the
   TCP pipe full across latency while bounding how far bandwidth
   reservations run ahead of rate changes made at runtime. *)
let default_pipeline_depth = 8

(* Messages switched per engine activation before yielding. *)
let engine_batch = 64

(* Per-node telemetry handles, resolved once at node creation so the
   hot path never looks anything up by name (the registry's
   no-allocation rule). [None] when the network has no telemetry. *)
type ntel = {
  tl : Tel.t;
  tr : Tracer.t;
  c_enqueued : Metrics.counter;
  c_switched : Metrics.counter;
  c_sent : Metrics.counter;
  c_delivered : Metrics.counter;
  c_dropped : Metrics.counter;
  c_shed : Metrics.counter; (* admission refusals (guard.shed_total) *)
  c_link_failures : Metrics.counter;
  h_xmit_us : Metrics.histogram; (* transmit time of outgoing msgs, µs *)
  h_switch_bytes : Metrics.histogram; (* switched message sizes *)
  g_buffered : Metrics.gauge; (* receiver-buffer occupancy at last switch *)
}

type host = {
  host_name : string;
  cpu : Rsrc.t option;
  cost_base : float;
  cost_per_thread : float;
  mutable threads : int;
}

type link = {
  l_src : node;
  l_dst : node;
  l_latency : float;
  cap : Rsrc.t;
  send_buf : Msg.t Cqueue.t;
  overflow : Msg.t Queue.t;
  recv_buf : Msg.t Cqueue.t;
  mutable reserved_slots : int;
  meter : Meter.t;
  mutable l_closed : bool;
  mutable stalled : bool;
  mutable loss_p : float; (* per-transmission loss probability *)
  mutable corrupt_p : float; (* per-transmission corruption probability *)
  mutable draining : bool; (* graceful disconnect requested *)
  mutable pending_fanout : (Msg.t * link list) option;
      (* a switched message and the out-links whose full sender
         buffers still block it *)
  mutable waiting : int; (* pending fanouts of [l_src] blocked on this link *)
  mutable pumping : bool;
  mutable weight : int;
  mutable wrr_left : int;
  l_hist : Metrics.histogram option; (* per-link transmit time, µs *)
}

and node = {
  n_id : NI.t;
  n_net : t;
  n_host : host;
  n_algo : Algorithm.t;
  mutable n_state : [ `Alive | `Terminated ];
  out_links : link NI.Tbl.t;
  in_links : link NI.Tbl.t;
  rr : link Ring.t; (* weighted-round-robin rotation over in-links *)
  up_rsrc : Rsrc.t;
  down_rsrc : Rsrc.t;
  total_rsrc : Rsrc.t;
  bufcap : int;
  mutable scheduled : bool;
  mutable n_wake : unit -> unit; (* runs the engine; made once per node *)
  control_q : Msg.t Queue.t;
  mutable kh : NI.Set.t;
  ctl_sent : (Mt.t, int ref) Hashtbl.t;
  ctl_recv : (Mt.t, int ref) Hashtbl.t;
  mutable app_meters : (int * Meter.t) list;
  mutable bytes_lost : int;
  mutable msgs_lost : int;
  mutable n_ctx : Algorithm.ctx option;
  n_observer : NI.t option;
  mutable tick_handle : Sim.handle option;
  mutable n_admission :
    (now:float -> app:int -> size:int -> backlog:int -> bool) option;
      (* overload-guard hook consulted before data enters the switch;
         [backlog] is the count of messages staged across this node's
         sender buffers and overflow queues *)
  n_tel : ntel option;
}

and t = {
  sim : Sim.t;
  nodes_tbl : node NI.Tbl.t;
  endpoints : (Msg.t -> unit) NI.Tbl.t;
  mutable latency_fn : (NI.t -> NI.t -> float) option;
  default_latency : float;
  default_bufcap : int;
  report_period : float;
  inactivity_timeout : float option;
  detect_delay : float;
  pipeline_depth : int;
  dflt_host : host;
  tele : Tel.t option;
  mutable partition : (NI.t -> NI.t -> bool) option;
      (* active network partition: [cut a b] means traffic a -> b is
         blackholed at delivery time *)
}

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let make_host ?(cpu = `Unconstrained) name =
  match cpu with
  | `Unconstrained ->
    { host_name = name; cpu = None; cost_base = 0.; cost_per_thread = 0.;
      threads = 0 }
  | `Calibrated (a, b) ->
    if a < 0. || b < 0. then invalid_arg "Network.add_host: cpu calibration";
    { host_name = name; cpu = Some (Rsrc.create ~rate:1.0); cost_base = a;
      cost_per_thread = b; threads = 0 }

let create ?(seed = 42) ?(default_latency = 0.001) ?(buffer_capacity = 5)
    ?(report_period = 1.0) ?inactivity_timeout ?(detect_delay = 0.05)
    ?(pipeline_depth = default_pipeline_depth) ?telemetry () =
  if buffer_capacity <= 0 then invalid_arg "Network.create: buffer_capacity";
  if default_latency < 0. then invalid_arg "Network.create: default_latency";
  if pipeline_depth <= 0 then invalid_arg "Network.create: pipeline_depth";
  {
    sim = Sim.create ~seed ();
    nodes_tbl = NI.Tbl.create 64;
    endpoints = NI.Tbl.create 4;
    latency_fn = None;
    default_latency;
    default_bufcap = buffer_capacity;
    report_period;
    inactivity_timeout;
    detect_delay;
    pipeline_depth;
    dflt_host = make_host "default";
    tele = telemetry;
    partition = None;
  }

let telemetry t = t.tele

let sim t = t.sim
let now t = Sim.now t.sim
let rng t = Sim.rng t.sim
let run ?until t = Sim.run ?until t.sim

let default_host t = t.dflt_host
let add_host _t ?cpu name = make_host ?cpu name
let host_threads h = h.threads
let host_name h = h.host_name

let set_latency_fn t f = t.latency_fn <- Some f

let latency_between t a b =
  match t.latency_fn with Some f -> f a b | None -> t.default_latency

let find_node t ni = NI.Tbl.find_opt t.nodes_tbl ni
let node t ni = match find_node t ni with Some n -> n | None -> raise Not_found

let nodes t = NI.Tbl.fold (fun _ n acc -> n :: acc) t.nodes_tbl []
let node_ids t = List.map (fun n -> n.n_id) (nodes t)
let id n = n.n_id
let is_alive n = n.n_state = `Alive
let known_hosts n = NI.Set.elements n.kh

let ctx n =
  match n.n_ctx with Some c -> c | None -> assert false

(* ------------------------------------------------------------------ *)
(* Byte accounting                                                     *)

let bump tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := !r + v
  | None -> Hashtbl.add tbl key (ref v)

let counter tbl key =
  match Hashtbl.find_opt tbl key with Some r -> !r | None -> 0

let rec find_meter app = function
  | (a, m) :: tl -> if a = app then m else find_meter app tl
  | [] -> raise Not_found

let app_meter n app =
  try find_meter app n.app_meters
  with Not_found ->
    let m = Meter.create ~window:n.n_net.report_period () in
    n.app_meters <- (app, m) :: n.app_meters;
    m

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)

(* All helpers cost one branch when the network has no telemetry and
   two when it is attached but disabled; the enabled path performs only
   integer mixing, mutable-cell bumps and ring-array stores — no
   allocation, per the registry's hot-path rule. [tel_msg] takes the
   already-resolved [tl] so the option match and enabled check run once
   per event, not twice. *)

let[@inline] tel_msg n tl kind ~peer (m : Msg.t) =
  Tel.record tl.tl tl.tr
    ~time:(Sim.now n.n_net.sim)
    ~kind ~peer ~id:(Ev.id_of_msg m) ~app:m.Msg.app ~mseq:m.Msg.seq
    ~size:(Msg.size m)

let tel_enqueue n ~peer m =
  match n.n_tel with
  | None -> ()
  | Some tl ->
    if Tel.enabled tl.tl then begin
      Metrics.incr tl.c_enqueued;
      tel_msg n tl Ev.Enqueue ~peer m
    end

let tel_drop n ~peer m =
  match n.n_tel with
  | None -> ()
  | Some tl ->
    if Tel.enabled tl.tl then begin
      Metrics.incr tl.c_dropped;
      tel_msg n tl Ev.Drop ~peer m
    end

let tel_shed n ~peer m =
  match n.n_tel with
  | None -> ()
  | Some tl ->
    if Tel.enabled tl.tl then begin
      Metrics.incr tl.c_shed;
      tel_msg n tl Ev.Shed ~peer m
    end

let tel_deliver n ~peer m =
  match n.n_tel with
  | None -> ()
  | Some tl ->
    if Tel.enabled tl.tl then begin
      Metrics.incr tl.c_delivered;
      tel_msg n tl Ev.Deliver ~peer m
    end

(* transmission started on [l]: event on the sender, transmit-time
   (reservation to arrival, µs) into the node and per-link histograms *)
let tel_send l (m : Msg.t) ~now ~arrival =
  let n = l.l_src in
  match n.n_tel with
  | None -> ()
  | Some tl ->
    if Tel.enabled tl.tl then begin
      Metrics.incr tl.c_sent;
      let us = int_of_float ((arrival -. now) *. 1e6) in
      Metrics.observe tl.h_xmit_us us;
      (match l.l_hist with Some h -> Metrics.observe h us | None -> ());
      tel_msg n tl Ev.Send ~peer:l.l_dst.n_id m
    end

let tel_switch n l m =
  match n.n_tel with
  | None -> ()
  | Some tl ->
    if Tel.enabled tl.tl then begin
      Metrics.incr tl.c_switched;
      Metrics.observe tl.h_switch_bytes (Msg.size m);
      Metrics.set tl.g_buffered (float_of_int (Cqueue.length l.recv_buf));
      tel_msg n tl Ev.Switch ~peer:l.l_src.n_id m
    end

let tel_event n kind ~peer =
  match n.n_tel with
  | None -> ()
  | Some tl ->
    if Tel.enabled tl.tl then begin
      (match kind with
      | Ev.Link_failure -> Metrics.incr tl.c_link_failures
      | _ -> ());
      Tel.record tl.tl tl.tr
        ~time:(Sim.now n.n_net.sim)
        ~kind ~peer ~id:Ev.no_id ~app:0 ~mseq:0 ~size:0
    end

(* ------------------------------------------------------------------ *)
(* Engine scheduling                                                   *)

let rec schedule_engine n =
  if (not n.scheduled) && n.n_state = `Alive then begin
    n.scheduled <- true;
    ignore (Sim.schedule n.n_net.sim ~delay:0. n.n_wake)
  end

and schedule_engine_at n ~time =
  (* Used when the shared CPU is busy: one deferred wake-up. We rely on
     [scheduled] to coalesce; the engine re-examines everything when it
     runs. *)
  if (not n.scheduled) && n.n_state = `Alive then begin
    n.scheduled <- true;
    ignore (Sim.schedule_at n.n_net.sim ~time n.n_wake)
  end

(* ------------------------------------------------------------------ *)
(* Links and transmission                                              *)

and ensure_link src dst_id =
  match NI.Tbl.find_opt src.out_links dst_id with
  | Some l -> Some l
  | None -> (
    let t = src.n_net in
    match find_node t dst_id with
    | Some dst when dst.n_state = `Alive && src.n_state = `Alive ->
      let l =
        {
          l_src = src;
          l_dst = dst;
          l_latency = latency_between t src.n_id dst_id;
          cap = Rsrc.unconstrained ();
          send_buf = Cqueue.create ~capacity:src.bufcap;
          overflow = Queue.create ();
          recv_buf = Cqueue.create ~capacity:dst.bufcap;
          reserved_slots = 0;
          meter = Meter.create ~window:t.report_period ();
          l_closed = false;
          stalled = false;
          loss_p = 0.;
          corrupt_p = 0.;
          draining = false;
          pending_fanout = None;
          waiting = 0;
          pumping = false;
          weight = 1;
          wrr_left = 1;
          l_hist =
            (match src.n_tel with
            | Some tl ->
              Some
                (Metrics.histogram (Tel.metrics tl.tl)
                   ~scope:(NI.to_string src.n_id)
                   ("link." ^ NI.to_string dst_id ^ ".xmit_us"))
            | None -> None);
        }
      in
      NI.Tbl.add src.out_links dst_id l;
      NI.Tbl.add dst.in_links src.n_id l;
      Ring.add dst.rr l;
      (* one sender thread on the source host, one receiver thread on
         the destination host *)
      src.n_host.threads <- src.n_host.threads + 1;
      dst.n_host.threads <- dst.n_host.threads + 1;
      Log.debug (fun m ->
          m "link %a -> %a established" NI.pp src.n_id NI.pp dst_id);
      Some l
    | _ ->
      (* connection refused: surface as an immediate link failure *)
      notify_link_failed src ~peer:dst_id ~direction:`Out;
      None)

and notify_link_failed n ~peer ~direction =
  if n.n_state = `Alive then begin
    let dir = match direction with `Out -> 1 | `In -> 0 in
    let m = Msg.with_params ~mtype:Mt.Link_failed ~origin:peer dir 0 in
    Queue.push m n.control_q;
    schedule_engine n
  end

and window_available l =
  l.reserved_slots < l.l_src.n_net.pipeline_depth
  && Cqueue.length l.recv_buf + l.reserved_slots < Cqueue.capacity l.recv_buf

(* Start as many transmissions as buffers, window and pipeline allow. *)
and pump_link l =
  if not l.pumping then begin
    l.pumping <- true;
    let t = l.l_src.n_net in
    let continue = ref true in
    while !continue do
      if l.l_closed then continue := false
      else if Cqueue.is_empty l.send_buf && Queue.is_empty l.overflow then
        continue := false
      else if not (window_available l) then continue := false
      else begin
        (* overflow drains through the sender buffer to preserve FIFO *)
        while
          (not (Queue.is_empty l.overflow)) && not (Cqueue.is_full l.send_buf)
        do
          (* cannot refuse: the loop guard just checked for space, and
             the engine is single-threaded — keep the audit explicit *)
          let ok = Cqueue.push l.send_buf (Queue.pop l.overflow) in
          assert ok
        done;
        match Cqueue.pop l.send_buf with
        | None -> continue := false
        | Some m ->
          l.reserved_slots <- l.reserved_slots + 1;
          let size = float_of_int (Msg.size m) in
          let src = l.l_src and dst = l.l_dst in
          (* book each constraint independently; the bytes clear the
             link when the slowest constraint finishes. Unaligned
             booking keeps every rate server fully utilized — a slow
             peer queues at its own resource without fragmenting the
             sender's budget. Booked as a straight chain: this runs
             once per transmission, so no list is allocated. *)
          let now = Sim.now t.sim in
          let reserve acc r =
            let _, fin = Rsrc.reserve r ~now ~cost:size in
            Float.max acc fin
          in
          let finish =
            reserve
              (reserve
                 (reserve (reserve (reserve now l.cap) src.up_rsrc)
                    src.total_rsrc)
                 dst.down_rsrc)
              dst.total_rsrc
          in
          let arrival = finish +. l.l_latency in
          tel_send l m ~now ~arrival;
          ignore
            (Sim.schedule_at t.sim ~time:arrival (fun () -> deliver l m));
          on_send_space l
      end
    done;
    l.pumping <- false
  end

(* Space became available in [l]'s sender buffer: wake the engine so
   pending fanouts blocked on this destination are retried in fair
   round-robin order, then let the algorithm know. *)
and on_send_space l =
  let src = l.l_src in
  if src.n_state = `Alive then begin
    if l.waiting > 0 then schedule_engine src;
    if (not (Cqueue.is_full l.send_buf)) && Queue.is_empty l.overflow then
      src.n_algo.on_ready (ctx src) l.l_dst.n_id
  end

and retry_fanout n in_l =
  match in_l.pending_fanout with
  | None -> false
  | Some (_, remaining)
    when Option.is_none n.n_admission && List.for_all still_full remaining ->
    (* every enqueue would fail and change nothing: the retry is skipped,
       so a scan past many blocked in-links stays cheap *)
    false
  | Some (m, remaining) ->
    let still =
      List.filter (fun l -> not (try_enqueue_data n m l.l_dst.n_id)) remaining
    in
    set_pending in_l (if still = [] then None else Some (m, still));
    still = []

and still_full l = (not (l.l_closed || l.draining)) && Cqueue.is_full l.send_buf

(* The only writer of [pending_fanout]: keeps every out-link's count of
   the fanouts blocked on it, so a transmission need not look for them. *)
and set_pending in_l pending =
  let count d = function
    | Some (_, links) -> List.iter (fun l -> l.waiting <- l.waiting + d) links
    | None -> ()
  in
  count (-1) in_l.pending_fanout;
  in_l.pending_fanout <- pending;
  count 1 pending

(* Attempt to place a data message into the sender buffer toward
   [dst_id]; creates the connection on demand. Returns false when the
   buffer is full (caller retries later). Dead destinations swallow the
   message (the failure notification travels separately). *)
and out_backlog n =
  NI.Tbl.fold
    (fun _ l acc -> acc + Cqueue.length l.send_buf + Queue.length l.overflow)
    n.out_links 0

(* The overload-guard admission gate: consulted (when installed) before
   any data message enters this node's switch. A refusal is final — the
   message is shed with a [Shed] event, never retried. *)
and admitted n m =
  match n.n_admission with
  | None -> true
  | Some admit ->
    admit
      ~now:(Sim.now n.n_net.sim)
      ~app:m.Msg.app ~size:(Msg.size m) ~backlog:(out_backlog n)

and try_enqueue_data n m dst_id =
  if not (admitted n m) then begin
    tel_shed n ~peer:dst_id m;
    true
  end
  else
  match ensure_link n dst_id with
  | None ->
    tel_drop n ~peer:dst_id m;
    true
  | Some l ->
    if l.l_closed || l.draining then begin
      tel_drop n ~peer:dst_id m;
      true
    end
    else if Cqueue.push l.send_buf m then begin
      tel_enqueue n ~peer:dst_id m;
      pump_link l;
      true
    end
    else false

(* Algorithm-originated data send: never fails; excess beyond the
   sender buffer stages in the overflow queue. *)
and send_data n m dst_id =
  if not (admitted n m) then tel_shed n ~peer:dst_id m
  else
  match ensure_link n dst_id with
  | None -> tel_drop n ~peer:dst_id m
  | Some l ->
    if l.l_closed || l.draining then tel_drop n ~peer:dst_id m
    else begin
      if not (Cqueue.push l.send_buf m) then Queue.push m l.overflow;
      tel_enqueue n ~peer:dst_id m;
      pump_link l
    end

and partitioned t a b =
  match t.partition with Some cut -> cut a b | None -> false

and deliver l m =
  l.reserved_slots <- l.reserved_slots - 1;
  let t = l.l_src.n_net in
  let dst = l.l_dst in
  let lose () =
    dst.bytes_lost <- dst.bytes_lost + Msg.size m;
    dst.msgs_lost <- dst.msgs_lost + 1;
    tel_drop dst ~peer:l.l_src.n_id m
  in
  if l.l_closed || dst.n_state <> `Alive then lose ()
  else if l.stalled then
    (* hung peer: bytes vanish without reaching the application *)
    lose ()
  else if partitioned t l.l_src.n_id dst.n_id then
    (* an active partition blackholes the link without closing it *)
    lose ()
  else if
    l.loss_p > 0. && Random.State.float (Sim.rng t.sim) 1.0 < l.loss_p
  then
    (* injected stochastic loss (chaos); deterministic under the sim *)
    lose ()
  else begin
    let m =
      if
        l.corrupt_p > 0.
        && Bytes.length m.Msg.payload > 0
        && Random.State.float (Sim.rng t.sim) 1.0 < l.corrupt_p
      then begin
        (* flip one payload bit in a private copy: the sender's bytes
           may still ride other links of a zero-copy fanout *)
        let c = Msg.clone m in
        let i =
          Random.State.int (Sim.rng t.sim) (Bytes.length c.Msg.payload)
        in
        Bytes.set c.Msg.payload i
          (Char.chr (Char.code (Bytes.get c.Msg.payload i) lxor 0x40));
        c
      end
      else m
    in
    let ok = Cqueue.push l.recv_buf m in
    assert ok;
    Meter.record l.meter ~now:(Sim.now t.sim) ~bytes:(Msg.size m);
    tel_deliver dst ~peer:l.l_src.n_id m;
    schedule_engine dst
  end;
  (* the window slot is free either way *)
  pump_link l

(* ------------------------------------------------------------------ *)
(* Control path                                                        *)

and control_send t ~from m dst_id =
  let lat =
    match from with
    | Some src -> latency_between t src.n_id dst_id
    | None -> t.default_latency
  in
  (match from with
  | Some src -> bump src.ctl_sent m.Msg.mtype (Msg.size m)
  | None -> ());
  ignore
    (Sim.schedule t.sim ~delay:lat (fun () ->
         match NI.Tbl.find_opt t.endpoints dst_id with
         | Some handler -> handler m
         | None -> (
           match find_node t dst_id with
           | Some dst
             when dst.n_state = `Alive
                  && (match from with
                     | Some src -> partitioned t src.n_id dst_id
                     | None -> false) ->
             (* node-to-node control traffic cannot cross an active
                partition; it vanishes like its TCP segments would.
                Observer/endpoint traffic ([from = None]) models the
                out-of-band control channel and is never cut. *)
             ()
           | Some dst when dst.n_state = `Alive ->
             bump dst.ctl_recv m.Msg.mtype (Msg.size m);
             Queue.push m dst.control_q;
             schedule_engine dst
           | Some _ | None -> (
             (* destination unreachable: the sender's engine finds out *)
             match from with
             | Some src ->
               notify_link_failed src ~peer:dst_id ~direction:`Out
             | None -> ()))))

(* ------------------------------------------------------------------ *)
(* The engine                                                          *)

and cpu_cost h = h.cost_base +. (h.cost_per_thread *. float_of_int h.threads)

and engine_handles_control n (m : Msg.t) =
  let t = n.n_net in
  match m.mtype with
  | Mt.Boot_reply ->
    (try
       let r = Wire.R.of_bytes m.payload in
       let hosts = Wire.R.nodes r in
       List.iter
         (fun h -> if not (NI.equal h n.n_id) then n.kh <- NI.Set.add h n.kh)
         hosts
     with Wire.Truncated -> ());
    false (* the algorithm also sees it (iAlgorithm default records it) *)
  | Mt.Request ->
    (match make_status_of_node n with
    | Some st ->
      let reply =
        Msg.control ~mtype:Mt.Status ~origin:n.n_id (Status.to_payload st)
      in
      (* status updates are submitted to the node's configured
         observer endpoint (which may be the firewall proxy), not
         straight back to whoever asked *)
      let dst =
        match n.n_observer with Some o -> o | None -> m.origin
      in
      control_send t ~from:(Some n) reply dst
    | None -> ());
    false
  | Mt.Set_bandwidth ->
    (try
       let r = Wire.R.of_bytes m.payload in
       let kind = Wire.R.int32 r in
       let rate = Wire.R.float r in
       (match kind with
       | 0 -> Rsrc.set_rate n.total_rsrc rate
       | 1 -> Rsrc.set_rate n.up_rsrc rate
       | 2 -> Rsrc.set_rate n.down_rsrc rate
       | 3 ->
         let peer = Wire.R.node r in
         set_link_bandwidth_n n peer rate
       | _ -> ())
     with Wire.Truncated | Invalid_argument _ -> ());
    true
  | Mt.Terminate_node ->
    terminate_node n;
    true
  | Mt.Data | Mt.Boot | Mt.Status | Mt.Trace | Mt.S_deploy | Mt.S_terminate
  | Mt.Broken_source | Mt.Up_throughput | Mt.Down_throughput | Mt.Link_failed
  | Mt.S_query | Mt.S_query_ack | Mt.S_announce | Mt.S_join | Mt.S_leave
  | Mt.S_aware | Mt.S_federate | Mt.S_assign | Mt.Custom _ ->
    false

and set_link_bandwidth_n n peer rate =
  match ensure_link n peer with
  | Some l -> Rsrc.set_rate l.cap rate
  | None -> ()

and engine_handle_link_failed n (m : Msg.t) =
  (* engine-side cleanup before the algorithm hears about it *)
  let peer = m.Msg.origin in
  let direction =
    match Msg.params m with Some (1, _) -> `Out | _ -> `In
  in
  tel_event n Ev.Link_failure ~peer;
  (match direction with
  | `Out -> (
    match NI.Tbl.find_opt n.out_links peer with
    | Some l -> close_out_link n l
    | None -> ())
  | `In -> (
    match NI.Tbl.find_opt n.in_links peer with
    | Some l -> close_in_link n l
    | None -> ()))

and close_out_link n l =
  l.l_closed <- true;
  (* Everything still queued on our side is lost. Counted even when the
     link is already marked closed: the peer's teardown marks the shared
     record but only accounts for its own receiver side, so the sender's
     queues must be drained into [n]'s loss counters here. Double
     counting is impossible — every caller reaches this through
     [out_links], and the removal below makes the call unique. *)
  let count m =
    n.bytes_lost <- n.bytes_lost + Msg.size m;
    n.msgs_lost <- n.msgs_lost + 1;
    tel_drop n ~peer:l.l_dst.n_id m
  in
  Cqueue.iter count l.send_buf;
  Queue.iter count l.overflow;
  Cqueue.clear l.send_buf;
  Queue.clear l.overflow;
  NI.Tbl.remove n.out_links l.l_dst.n_id;
  n.n_host.threads <- n.n_host.threads - 1;
  (* a dead destination no longer blocks pending fanouts *)
  if l.waiting > 0 then
    NI.Tbl.iter
      (fun _ in_l ->
        match in_l.pending_fanout with
        | Some (m, remaining) ->
          let still = List.filter (fun x -> x != l) remaining in
          set_pending in_l (if still = [] then None else Some (m, still))
        | None -> ())
      n.in_links

and close_in_link n l =
  l.l_closed <- true;
  NI.Tbl.remove n.in_links l.l_src.n_id;
  Ring.remove n.rr l;
  n.n_host.threads <- n.n_host.threads - 1;
  (* already-received messages in the buffer were consumed below the
     socket; they are dropped with the link, counted as lost *)
  let count m =
    n.bytes_lost <- n.bytes_lost + Msg.size m;
    n.msgs_lost <- n.msgs_lost + 1;
    tel_drop n ~peer:l.l_src.n_id m
  in
  Cqueue.iter count l.recv_buf;
  Cqueue.clear l.recv_buf;
  (match l.pending_fanout with
  | Some (m, _) -> count m
  | None -> ());
  set_pending l None

(* Fan a switched message out to every destination. The same message
   value — and therefore the same payload bytes — is enqueued on every
   out-link by reference; the engine's ownership rule (payloads are
   immutable after construction) makes the sharing safe, so an 8-way
   fanout costs eight queue slots, not eight copies. When every
   enqueue succeeds the filter keeps nothing and allocates nothing. *)
and do_fanout n in_l m dests =
  let remaining =
    List.filter_map
      (fun dst ->
        if try_enqueue_data n m dst then None
        else NI.Tbl.find_opt n.out_links dst)
      dests
  in
  if remaining <> [] then set_pending in_l (Some (m, remaining))

(* Pick the next in-link with a switchable message, honouring the
   weighted round-robin rotation: the cursor stays on a link until its
   weight is spent. Links head-of-line blocked by a pending fanout are
   retried, then skipped while still blocked. *)
and next_switchable n =
  match Ring.find n.rr switchable with
  | Some l as found ->
    l.wrr_left <- l.wrr_left - 1;
    if l.wrr_left <= 0 then begin
      l.wrr_left <- l.weight;
      Ring.advance n.rr
    end;
    found
  | None -> None

and switchable l =
  (match l.pending_fanout with Some _ -> retry_fanout l.l_dst l | None -> true)
  && not (Cqueue.is_empty l.recv_buf)

and switch_one n l =
  match Cqueue.pop l.recv_buf with
  | None -> ()
  | Some m ->
    tel_switch n l m;
    (* receive window opened *)
    pump_link l;
    (if Mt.is_data m.Msg.mtype then
       let meter = app_meter n m.Msg.app in
       Meter.record meter ~now:(Sim.now n.n_net.sim) ~bytes:(Msg.size m));
    let verdict = n.n_algo.process (ctx n) m in
    (match verdict with
    | Algorithm.Consume -> ()
    | Algorithm.Hold -> ()
    | Algorithm.Forward dests -> do_fanout n l m dests)

and run_engine n =
  n.scheduled <- false;
  if n.n_state = `Alive then begin
    let t = n.n_net in
    (* Table 1: drain the publicized port first *)
    let rec drain_control () =
      match Queue.take_opt n.control_q with
      | None -> ()
      | Some m ->
        if m.Msg.mtype = Mt.Link_failed then engine_handle_link_failed n m;
        let engine_owned = engine_handles_control n m in
        if (not engine_owned) && n.n_state = `Alive then
          ignore (n.n_algo.process (ctx n) m);
        if n.n_state = `Alive then drain_control ()
    in
    drain_control ();
    if n.n_state = `Alive then begin
      (* then switch data messages, paced by the host CPU *)
      let budget = ref engine_batch in
      let continue = ref true in
      while !continue && !budget > 0 do
        let cpu_free =
          match n.n_host.cpu with
          | Some r -> Rsrc.free_at r
          | None -> 0.
        in
        let now = Sim.now t.sim in
        if cpu_free > now then begin
          schedule_engine_at n ~time:cpu_free;
          continue := false
        end
        else
          match next_switchable n with
          | None -> continue := false
          | Some l ->
            (match n.n_host.cpu with
            | Some r ->
              ignore (Rsrc.reserve r ~now ~cost:(cpu_cost n.n_host))
            | None -> ());
            switch_one n l;
            decr budget
      done;
      if !budget = 0 then
        (* yield to peers at the same instant, then continue *)
        schedule_engine n
    end
  end

(* ------------------------------------------------------------------ *)
(* Status & periodic work                                              *)

and make_status_of_node n =
  if n.n_state <> `Alive then None
  else begin
    let t = n.n_net in
    let now = Sim.now t.sim in
    let up =
      NI.Tbl.fold
        (fun peer l acc ->
          {
            Status.peer;
            rate = Meter.rate l.meter ~now;
            queued = Cqueue.length l.recv_buf;
            buffer_capacity = Cqueue.capacity l.recv_buf;
          }
          :: acc)
        n.in_links []
    in
    let down =
      NI.Tbl.fold
        (fun peer l acc ->
          {
            Status.peer;
            rate = Meter.rate l.meter ~now;
            queued = Cqueue.length l.send_buf;
            buffer_capacity = Cqueue.capacity l.send_buf;
          }
          :: acc)
        n.out_links []
    in
    Some
      {
        Status.node = n.n_id;
        time = now;
        upstreams = up;
        downstreams = down;
        bytes_lost = n.bytes_lost;
        messages_lost = n.msgs_lost;
        metrics =
          (match n.n_tel with
          | Some tl when Tel.enabled tl.tl ->
            Some
              (Metrics.to_blob
                 ~scope:(NI.to_string n.n_id)
                 (Tel.metrics tl.tl))
          | Some _ | None -> None);
      }
  end

and node_tick n =
  if n.n_state = `Alive then begin
    let t = n.n_net in
    let now = Sim.now t.sim in
    (* throughput reports to the algorithm, as engine-produced
       messages *)
    let report mtype peer rate =
      let w = Wire.W.create () in
      Wire.W.float w rate;
      let m = Msg.control ~mtype ~origin:peer (Wire.W.contents w) in
      Queue.push m n.control_q
    in
    NI.Tbl.iter
      (fun peer l -> report Mt.Up_throughput peer (Meter.rate l.meter ~now))
      n.in_links;
    NI.Tbl.iter
      (fun peer l -> report Mt.Down_throughput peer (Meter.rate l.meter ~now))
      n.out_links;
    (* inactivity-based failure detection *)
    (match t.inactivity_timeout with
    | Some limit ->
      let dead = ref [] in
      NI.Tbl.iter
        (fun peer l ->
          if
            (not l.l_closed)
            && Meter.total_messages l.meter > 0
            && Meter.idle_for l.meter ~now > limit
          then dead := (peer, l) :: !dead)
        n.in_links;
      List.iter
        (fun (peer, _) ->
          Log.info (fun m ->
              m "%a: inactivity timeout on upstream %a" NI.pp n.n_id NI.pp
                peer);
          notify_link_failed n ~peer ~direction:`In)
        !dead
    | None -> ());
    n.n_algo.on_tick (ctx n);
    schedule_engine n
  end

(* ------------------------------------------------------------------ *)
(* Termination                                                         *)

and terminate_node n =
  if n.n_state = `Alive then begin
    let t = n.n_net in
    n.n_state <- `Terminated;
    (match n.tick_handle with
    | Some h -> Sim.cancel t.sim h
    | None -> ());
    n.tick_handle <- None;
    Log.info (fun m -> m "node %a terminated" NI.pp n.n_id);
    tel_event n Ev.Teardown ~peer:Tracer.nil_peer;
    let count peer m =
      n.bytes_lost <- n.bytes_lost + Msg.size m;
      n.msgs_lost <- n.msgs_lost + 1;
      tel_drop n ~peer m
    in
    (* my own buffers are lost *)
    NI.Tbl.iter
      (fun peer l ->
        let count = count peer in
        Cqueue.iter count l.recv_buf;
        Cqueue.clear l.recv_buf;
        (match l.pending_fanout with Some (m, _) -> count m | None -> ());
        set_pending l None;
        l.l_closed <- true)
      n.in_links;
    NI.Tbl.iter
      (fun peer l ->
        let count = count peer in
        Cqueue.iter count l.send_buf;
        Queue.iter count l.overflow;
        Cqueue.clear l.send_buf;
        Queue.clear l.overflow;
        l.l_closed <- true)
      n.out_links;
    Queue.clear n.control_q;
    (* release this node's threads. In/out link threads live partly on
       peer hosts: the receiver thread of an in-link is ours, the sender
       thread is the peer's. Each link contributed exactly one thread to
       this host. *)
    n.n_host.threads <-
      n.n_host.threads - 1 - NI.Tbl.length n.in_links
      - NI.Tbl.length n.out_links;
    (* peers detect the failure after the socket-level delay *)
    let notify_peer peer direction =
      ignore
        (Sim.schedule t.sim ~delay:t.detect_delay (fun () ->
             match find_node t peer with
             | Some p when p.n_state = `Alive ->
               notify_link_failed p ~peer:n.n_id ~direction
             | Some _ | None -> ()))
    in
    NI.Tbl.iter (fun peer _ -> notify_peer peer `Out) n.in_links;
    NI.Tbl.iter (fun peer _ -> notify_peer peer `In) n.out_links;
    NI.Tbl.reset n.in_links;
    NI.Tbl.reset n.out_links;
    Ring.clear n.rr
  end

(* ------------------------------------------------------------------ *)
(* Node creation & context                                             *)

let make_ctx n : Algorithm.ctx =
  let t = n.n_net in
  {
    Algorithm.self = n.n_id;
    now = (fun () -> Sim.now t.sim);
    send =
      (fun m dst ->
        if n.n_state = `Alive then
          if Mt.is_data m.Msg.mtype then send_data n m dst
          else control_send t ~from:(Some n) m dst);
    can_send =
      (fun dst ->
        match NI.Tbl.find_opt n.out_links dst with
        | Some l ->
          (not l.l_closed) && (not l.draining)
          && (not (Cqueue.is_full l.send_buf))
          && Queue.is_empty l.overflow
        | None -> n.n_state = `Alive);
    known_hosts = (fun () -> NI.Set.elements n.kh);
    add_known_host =
      (fun h -> if not (NI.equal h n.n_id) then n.kh <- NI.Set.add h n.kh);
    upstreams =
      (fun () -> NI.Tbl.fold (fun peer _ acc -> peer :: acc) n.in_links []);
    downstreams =
      (fun () -> NI.Tbl.fold (fun peer _ acc -> peer :: acc) n.out_links []);
    up_throughput =
      (fun peer ->
        match NI.Tbl.find_opt n.in_links peer with
        | Some l -> Meter.rate l.meter ~now:(Sim.now t.sim)
        | None -> 0.);
    down_throughput =
      (fun peer ->
        match NI.Tbl.find_opt n.out_links peer with
        | Some l -> Meter.rate l.meter ~now:(Sim.now t.sim)
        | None -> 0.);
    measure =
      (fun peer cb ->
        let lat = latency_between t n.n_id peer in
        ignore
          (Sim.schedule t.sim ~delay:(2. *. lat) (fun () ->
               match find_node t peer with
               | Some p when p.n_state = `Alive ->
                 (* available = emulated budget minus current
                    utilization, on both endpoints *)
                 let now = Sim.now t.sim in
                 let util links =
                   NI.Tbl.fold
                     (fun _ l acc -> acc +. Meter.rate l.meter ~now)
                     links 0.
                 in
                 let headroom rate used =
                   if rate = infinity then infinity
                   else Float.max 0. (rate -. used)
                 in
                 let out_n = util n.out_links and in_n = util n.in_links in
                 let out_p = util p.out_links and in_p = util p.in_links in
                 let avail =
                   Float.min
                     (Float.min
                        (headroom (Rsrc.rate n.up_rsrc) out_n)
                        (headroom (Rsrc.rate n.total_rsrc) (out_n +. in_n)))
                     (Float.min
                        (headroom (Rsrc.rate p.down_rsrc) in_p)
                        (headroom (Rsrc.rate p.total_rsrc) (out_p +. in_p)))
                 in
                 (* measured estimates carry ±5% noise *)
                 let noise =
                   1. +. ((Random.State.float (Sim.rng t.sim) 0.1) -. 0.05)
                 in
                 let bw =
                   if avail = infinity then infinity else avail *. noise
                 in
                 cb ~bandwidth:bw ~latency:lat
               | Some _ | None -> cb ~bandwidth:0. ~latency:lat)));
    rng = Sim.rng t.sim;
    trace =
      (fun s ->
        match n.n_observer with
        | Some obs ->
          let m =
            Msg.control ~mtype:Mt.Trace ~origin:n.n_id (Bytes.of_string s)
          in
          control_send t ~from:(Some n) m obs
        | None -> ());
    set_timer =
      (fun delay f ->
        ignore
          (Sim.schedule t.sim ~delay (fun () ->
               if n.n_state = `Alive then begin
                 f ();
                 schedule_engine n
               end)));
    observer = n.n_observer;
  }

let add_node t ?host ?(bw = Bwspec.unconstrained) ?buffer_capacity ?observer
    ?(seeds = []) ~id:n_id algo =
  let revived =
    match NI.Tbl.find_opt t.nodes_tbl n_id with
    | Some old when old.n_state = `Terminated ->
      (* churn respawn: the dead incarnation is replaced by a fresh
         engine under the same id — peers treat it as a new node *)
      NI.Tbl.remove t.nodes_tbl n_id;
      true
    | Some _ ->
      invalid_arg ("Network.add_node: duplicate id " ^ NI.to_string n_id)
    | None -> false
  in
  if NI.Tbl.mem t.endpoints n_id then
    invalid_arg ("Network.add_node: id is an endpoint " ^ NI.to_string n_id);
  let h = match host with Some h -> h | None -> t.dflt_host in
  let bufcap =
    match buffer_capacity with Some c -> c | None -> t.default_bufcap
  in
  if bufcap <= 0 then invalid_arg "Network.add_node: buffer_capacity";
  let mk r = Rsrc.create ~rate:r in
  let n =
    {
      n_id;
      n_net = t;
      n_host = h;
      n_algo = algo;
      n_state = `Alive;
      out_links = NI.Tbl.create 8;
      in_links = NI.Tbl.create 8;
      rr = Ring.create ();
      up_rsrc = mk bw.Bwspec.up;
      down_rsrc = mk bw.Bwspec.down;
      total_rsrc = mk bw.Bwspec.total;
      bufcap;
      scheduled = false;
      n_wake = ignore;
      control_q = Queue.create ();
      kh = NI.Set.empty;
      ctl_sent = Hashtbl.create 8;
      ctl_recv = Hashtbl.create 8;
      app_meters = [];
      bytes_lost = 0;
      msgs_lost = 0;
      n_ctx = None;
      n_observer = observer;
      tick_handle = None;
      n_admission = None;
      n_tel =
        (match t.tele with
        | None -> None
        | Some tl ->
          let m = Tel.metrics tl in
          let scope = NI.to_string n_id in
          Some
            {
              tl;
              tr = Tel.tracer tl n_id;
              c_enqueued = Metrics.counter m ~scope "enqueued";
              c_switched = Metrics.counter m ~scope "switched";
              c_sent = Metrics.counter m ~scope "sent";
              c_delivered = Metrics.counter m ~scope "delivered";
              c_dropped = Metrics.counter m ~scope "dropped";
              c_shed = Metrics.counter m ~scope "guard.shed_total";
              c_link_failures = Metrics.counter m ~scope "link_failures";
              h_xmit_us = Metrics.histogram m ~scope "xmit_us";
              h_switch_bytes = Metrics.histogram m ~scope "switch_bytes";
              g_buffered = Metrics.gauge m ~scope "recv_buffered";
            });
    }
  in
  n.n_ctx <- Some (make_ctx n);
  n.n_wake <- (fun () -> run_engine n);
  (* decentralized join hook: seed contacts are known before the
     algorithm starts, no observer round-trip involved *)
  List.iter
    (fun s -> if not (NI.equal s n_id) then n.kh <- NI.Set.add s n.kh)
    seeds;
  NI.Tbl.add t.nodes_tbl n_id n;
  if revived then tel_event n Ev.Respawn ~peer:Tracer.nil_peer;
  h.threads <- h.threads + 1 (* the engine thread *);
  (* periodic engine work; nodes tick out of phase to avoid lockstep *)
  let phase =
    Random.State.float (Sim.rng t.sim) t.report_period
  in
  ignore
    (Sim.schedule t.sim ~delay:phase (fun () ->
         if n.n_state = `Alive then
           n.tick_handle <-
             Some (Sim.every t.sim ~period:t.report_period (fun () -> node_tick n))));
  (* bootstrap, then start the algorithm *)
  ignore
    (Sim.schedule t.sim ~delay:0. (fun () ->
         if n.n_state = `Alive then begin
           (match observer with
           | Some obs ->
             let m =
               Msg.control ~mtype:Mt.Boot ~origin:n_id Bytes.empty
             in
             control_send t ~from:(Some n) m obs
           | None -> ());
           algo.Algorithm.on_start (ctx n);
           schedule_engine n
         end));
  n

(* ------------------------------------------------------------------ *)
(* Endpoints                                                           *)

let register_endpoint t ni handler =
  if NI.Tbl.mem t.nodes_tbl ni then
    invalid_arg "Network.register_endpoint: id is a node";
  NI.Tbl.replace t.endpoints ni handler

let unregister_endpoint t ni = NI.Tbl.remove t.endpoints ni

let endpoint_send t ~from m dst =
  ignore from;
  control_send t ~from:None m dst

(* ------------------------------------------------------------------ *)
(* Topology and control operations                                     *)

let connect t a b =
  match find_node t a with
  | Some n -> ignore (ensure_link n b)
  | None -> raise Not_found

let disconnect t ~src ~dst =
  match find_node t src with
  | Some n -> (
    match NI.Tbl.find_opt n.out_links dst with
    | Some l -> l.draining <- true
    | None -> ())
  | None -> ()

let set_node_bandwidth t ni (bw : Bwspec.t) =
  let n = node t ni in
  Rsrc.set_rate n.total_rsrc bw.total;
  Rsrc.set_rate n.up_rsrc bw.up;
  Rsrc.set_rate n.down_rsrc bw.down

let set_link_bandwidth t ~src ~dst rate =
  if rate <= 0. then invalid_arg "Network.set_link_bandwidth: rate";
  let n = node t src in
  set_link_bandwidth_n n dst rate

let set_link_weight t ~src ~dst w =
  if w < 1 then invalid_arg "Network.set_link_weight: weight";
  match find_node t src with
  | Some n -> (
    match NI.Tbl.find_opt n.out_links dst with
    | Some l ->
      l.weight <- w;
      l.wrr_left <- Stdlib.min l.wrr_left w
    | None -> invalid_arg "Network.set_link_weight: no such link")
  | None -> invalid_arg "Network.set_link_weight: no such link"

let link_weight t ~src ~dst =
  match find_node t src with
  | Some n -> (
    match NI.Tbl.find_opt n.out_links dst with
    | Some l -> l.weight
    | None -> 0)
  | None -> 0

let terminate t ni =
  match find_node t ni with Some n -> terminate_node n | None -> ()

let inject_control t m dst =
  match find_node t dst with
  | Some n when n.n_state = `Alive ->
    Queue.push m n.control_q;
    schedule_engine n
  | Some _ | None -> (
    match NI.Tbl.find_opt t.endpoints dst with
    | Some handler -> handler m
    | None -> ())

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let find_link t ~src ~dst =
  match find_node t src with
  | Some n -> NI.Tbl.find_opt n.out_links dst
  | None -> None

let link_exists t ~src ~dst = find_link t ~src ~dst <> None

let link_throughput t ~src ~dst =
  match find_link t ~src ~dst with
  | Some l -> Meter.rate l.meter ~now:(now t)
  | None -> 0.

let link_latency t ~src ~dst =
  match find_link t ~src ~dst with Some l -> Some l.l_latency | None -> None

let links t =
  NI.Tbl.fold
    (fun _ n acc ->
      NI.Tbl.fold (fun dst _ acc -> (n.n_id, dst) :: acc) n.out_links acc)
    t.nodes_tbl []

let upstreams_of t ni =
  match find_node t ni with
  | Some n -> NI.Tbl.fold (fun peer _ acc -> peer :: acc) n.in_links []
  | None -> []

let downstreams_of t ni =
  match find_node t ni with
  | Some n -> NI.Tbl.fold (fun peer _ acc -> peer :: acc) n.out_links []
  | None -> []

let app_rate t ni ~app =
  match find_node t ni with
  | Some n -> (
    match find_meter app n.app_meters with
    | m -> Meter.rate m ~now:(now t)
    | exception Not_found -> 0.)
  | None -> 0.

let app_bytes t ni ~app =
  match find_node t ni with
  | Some n -> (
    match find_meter app n.app_meters with
    | m -> Meter.total_bytes m
    | exception Not_found -> 0)
  | None -> 0

let control_bytes_sent t ni mt =
  match find_node t ni with Some n -> counter n.ctl_sent mt | None -> 0

let control_bytes_received t ni mt =
  match find_node t ni with Some n -> counter n.ctl_recv mt | None -> 0

let control_bytes_sent_all t mt =
  NI.Tbl.fold (fun _ n acc -> acc + counter n.ctl_sent mt) t.nodes_tbl 0

let lost t ni =
  match find_node t ni with
  | Some n -> (n.bytes_lost, n.msgs_lost)
  | None -> (0, 0)

let make_status t ni =
  match find_node t ni with
  | Some n -> make_status_of_node n
  | None -> None

let stall_link t ~src ~dst v =
  match find_link t ~src ~dst with
  | Some l -> l.stalled <- v
  | None -> invalid_arg "Network.stall_link: no such link"

(* ------------------------------------------------------------------ *)
(* Overload guard                                                      *)

let set_admission t ni hook =
  match find_node t ni with
  | Some n -> n.n_admission <- hook
  | None -> invalid_arg "Network.set_admission: no such node"

let node_switched t ni =
  match find_node t ni with
  | Some { n_tel = Some tl; _ } -> Metrics.value tl.c_switched
  | Some _ | None -> 0

let node_backlog t ni =
  match find_node t ni with Some n -> out_backlog n | None -> 0

(* ------------------------------------------------------------------ *)
(* Fault injection (chaos)                                             *)

let kill_node = terminate

let set_partition t cut = t.partition <- cut

let is_partitioned t a b = partitioned t a b

let set_link_loss t ~src ~dst ?(corrupt = 0.) p =
  if not (p >= 0. && p <= 1.) then invalid_arg "Network.set_link_loss: p";
  if not (corrupt >= 0. && corrupt <= 1.) then
    invalid_arg "Network.set_link_loss: corrupt";
  match find_node t src with
  | None -> invalid_arg "Network.set_link_loss: no such node"
  | Some n -> (
    match ensure_link n dst with
    | Some l ->
      l.loss_p <- p;
      l.corrupt_p <- corrupt
    | None -> (* dead endpoint: the link is already failing entirely *) ())

let link_loss t ~src ~dst =
  match find_link t ~src ~dst with
  | Some l -> Some (l.loss_p, l.corrupt_p)
  | None -> None
