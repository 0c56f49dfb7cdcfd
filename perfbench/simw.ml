(* Simulator workloads: Network on Iov_dsim. A trial builds the overlay,
   runs it until the first message reaches every receiver (the set-up),
   then measures [sim_s] simulated seconds. A run holds a fixed number
   of trials, as many as take [--seconds] on the baseline host, so that
   its peak memory does not depend on how fast the host runs it (every
   trial builds a fresh overlay). Every trial of a run uses the run's
   seed, so every trial must fire the same number of events and deliver
   the same messages; a mismatch is a correctness failure, like a lost
   or reordered message.

   Latency is reported in wall-clock time, as on the socket workloads:
   a percentile of the messages' simulated one-way latencies (creation
   is stamped into the payload in simulated time), pooled across
   trials, times the run's median wall seconds per simulated second. It
   is how long a user of the simulator waits for the overlay to carry a
   message, and it moves with the simulator's cost per event. Timing
   each message's wall-clock journey directly would mostly time
   whichever garbage-collector slice happened to land inside it. *)

open Perfbench
module Network = Iov_core.Network
module Alg = Iov_core.Algorithm
module Msg = Iov_msg.Message
module Mt = Iov_msg.Mtype
module NI = Iov_msg.Node_id
module Flood = Iov_algos.Flood
module Source = Iov_algos.Source
module Sim = Iov_dsim.Sim
module Heap = Iov_dsim.Heap
module Tel = Iov_telemetry.Telemetry

let app = 1
let payload_size = 1024

(* Receivers check the payload and take a latency sample on one
   message in [stride]; every message's sequence number is checked. *)
let stride = 16

type shape = {
  sim_s : float;  (** simulated seconds per trial *)
  trial_s : float;  (** wall seconds a trial takes on the baseline host *)
  telemetry : bool;
}

let shape = function
  | "sim-tree-512" -> Some { sim_s = 0.25; trial_s = 0.65; telemetry = false }
  | "sim-fanin-128" -> Some { sim_s = 25.; trial_s = 0.8; telemetry = true }
  | _ -> None

let slice_s = 0.1
let setups = 16

(* Set-up advances the simulation in steps of [setup_step_s] until every
   receiver has its first message, for at most [setup_limit_s]. *)
let setup_step_s = 0.001
let setup_limit_s = 5.

(* Extra simulated time a trial may spend draining once its sources
   stop, before undelivered messages count as lost. *)
let drain_limit_s = 20.

(* Wall time spent in algorithm [process] calls, measured from outside
   by wrapping each node's [Algorithm.t]. *)
type probe = {
  mutable ns : int;
  mutable calls : int;
  samples : Vec.t;  (** one duration in [stride] calls *)
}

let new_probe () = { ns = 0; calls = 0; samples = Vec.create () }

let timed probe (alg : Alg.t) =
  match probe with
  | None -> alg
  | Some p ->
    {
      alg with
      Alg.process =
        (fun ctx m ->
          let t0 = Clock.now_ns () in
          let v = alg.Alg.process ctx m in
          let d = Clock.now_ns () - t0 in
          p.ns <- p.ns + d;
          p.calls <- p.calls + 1;
          if p.calls land (stride - 1) = 0 then Vec.push p.samples d;
          v);
    }

let sim_ns net = int_of_float (Network.now net *. 1e9)

(* A receiver of one or more in-order streams. *)
type recv = {
  next : int array;  (** per stream slot: the sequence number due next *)
  mutable got : int;
  mutable bad : int;
}

let new_recv slots = { next = Array.make slots 0; got = 0; bad = 0 }

let recv_alg net r ~pay ~lat ~slot_of =
  Alg.make ~name:"bench-recv" (fun _ (m : Msg.t) ->
      (if m.Msg.mtype = Mt.Data && m.Msg.app = app then
         let i = slot_of m.Msg.origin in
         let seq = m.Msg.seq in
         let sampled = seq land (stride - 1) = 0 in
         if seq = r.next.(i) && ((not sampled) || Payload.valid pay m.Msg.payload ~seq)
         then begin
           r.got <- r.got + 1;
           if sampled then Vec.push lat (sim_ns net - Payload.stamp m.Msg.payload)
         end
         else r.bad <- r.bad + 1;
         r.next.(i) <- seq + 1);
      Alg.Consume)

(* [Iov_algos.Source] advances a stream's cursor only after [ctx.send]
   returns, but the simulator's send may pump the idle link at once and
   call [on_ready] from inside it, which emits the same sequence number
   a second time (and skips one later). Nested callbacks are dropped
   here: the outer generation loop keeps filling the link anyway, and
   the only nested [on_ready] is for the link being filled. *)
let unnested (alg : Alg.t) =
  let busy = ref false in
  let guard f =
    if not !busy then begin
      busy := true;
      Fun.protect ~finally:(fun () -> busy := false) f
    end
  in
  {
    alg with
    Alg.on_start = (fun ctx -> guard (fun () -> alg.Alg.on_start ctx));
    on_ready = (fun ctx peer -> guard (fun () -> alg.Alg.on_ready ctx peer));
  }

(* A back-to-back 1 KB source whose payloads carry their creation time
   and whose streams' lengths land in [made]. *)
let source net pay made ~stream ~dests =
  let s =
    Source.create ~payload_size
      ~make_payload:(fun ~dest_index ~seq ->
        let i = stream dest_index in
        made.(i) <- seq + 1;
        Payload.make pay ~seq ~stamp:(sim_ns net))
      ~app ~dests ()
  in
  (s, unnested (Source.algorithm s))

type built = {
  net : Network.t;
  tel : Tel.t option;
  sources : Source.t list;
  recvs : recv list;
  streams : (recv * int * int) list;
      (** receiver, its slot, the source stream that slot follows *)
  made : int array;  (** per source stream: messages created *)
  lat : Vec.t;  (** simulated ns, shared by every receiver *)
}

(* Node 0 is a back-to-back source feeding nodes 1 and 2; node i
   forwards to 2i+1 and 2i+2 where they exist; nodes 256..511 are the
   receivers, each following the stream of the root's child above it. *)
let build_tree ~seed ~telemetry:_ ~flood ~sink =
  let n = 512 in
  let net = Network.create ~seed () in
  let ids = Array.init n NI.synthetic in
  let pay = Payload.create ~seed ~size:payload_size in
  let lat = Vec.create () in
  let made = Array.make 2 0 in
  let src, src_alg = source net pay made ~stream:Fun.id ~dests:[ ids.(1); ids.(2) ] in
  let rec branch i = if i <= 2 then i - 1 else branch ((i - 1) / 2) in
  let streams = ref [] in
  for i = 1 to n - 1 do
    let kids = List.filter (fun k -> k < n) [ (2 * i) + 1; (2 * i) + 2 ] in
    let alg =
      if kids = [] then begin
        let r = new_recv 1 in
        streams := (r, 0, branch i) :: !streams;
        timed sink (recv_alg net r ~pay ~lat ~slot_of:(fun _ -> 0))
      end
      else begin
        let f = Flood.create () in
        Flood.set_route f ~app ~upstreams:[ ids.((i - 1) / 2) ]
          ~downstreams:(List.map (fun k -> ids.(k)) kids) ();
        timed flood (Flood.algorithm f)
      end
    in
    ignore (Network.add_node net ~id:ids.(i) alg)
  done;
  ignore (Network.add_node net ~id:ids.(0) src_alg);
  for i = 1 to n - 1 do
    Network.connect net ids.((i - 1) / 2) ids.(i)
  done;
  let streams = List.rev !streams in
  {
    net; tel = None; sources = [ src ];
    recvs = List.map (fun (r, _, _) -> r) streams;
    streams; made; lat;
  }

(* Sources 1..128 each send back-to-back to collector 0, which forwards
   everything to receiver 129 over one link. *)
let build_fanin ~seed ~telemetry ~flood ~sink =
  let k = 128 in
  let tel = Tel.create ~enabled:telemetry () in
  let net = Network.create ~seed ~telemetry:tel () in
  let coll = NI.synthetic 0 and rcv = NI.synthetic (k + 1) in
  let pay = Payload.create ~seed ~size:payload_size in
  let lat = Vec.create () in
  let made = Array.make k 0 in
  let src_ids = Array.init k (fun i -> NI.synthetic (i + 1)) in
  let slot = NI.Tbl.create k in
  Array.iteri (fun i id -> NI.Tbl.replace slot id i) src_ids;
  let r = new_recv k in
  ignore
    (Network.add_node net ~id:rcv
       (timed sink (recv_alg net r ~pay ~lat ~slot_of:(NI.Tbl.find slot))));
  let f = Flood.create () in
  Flood.set_route f ~app ~upstreams:(Array.to_list src_ids) ~downstreams:[ rcv ] ();
  ignore (Network.add_node net ~id:coll (timed flood (Flood.algorithm f)));
  let sources =
    List.init k (fun i ->
        let s, alg = source net pay made ~stream:(fun _ -> i) ~dests:[ coll ] in
        ignore (Network.add_node net ~id:src_ids.(i) alg);
        s)
  in
  Network.connect net coll rcv;
  Array.iter (fun id -> Network.connect net id coll) src_ids;
  {
    net; tel = Some tel; sources; recvs = [ r ];
    streams = List.init k (fun i -> (r, i, i)); made; lat;
  }

let build = function "sim-tree-512" -> build_tree | _ -> build_fanin
let received b = List.fold_left (fun n r -> n + r.got) 0 b.recvs
let expected b = List.fold_left (fun n (_, _, s) -> n + b.made.(s)) 0 b.streams

let complete b =
  List.for_all (fun (r, slot, s) -> r.next.(slot) = b.made.(s)) b.streams

let started b = List.for_all (fun (r, slot, _) -> r.next.(slot) > 0) b.streams

(* Builds the overlay and runs it until every receiver has its first
   message: [(built, wall seconds)], or [None] for the seconds if some
   receiver never heard from its source. *)
let set_up workload ~seed ~telemetry ~flood ~sink =
  (* every set-up starts from the same heap: the previous trial's
     network is garbage, and collecting it inside this timing would
     charge one trial for another *)
  Gc.compact ();
  let t0 = Clock.now_ns () in
  let b = build workload ~seed ~telemetry ~flood ~sink in
  while (not (started b)) && Network.now b.net < setup_limit_s do
    Network.run b.net ~until:(Network.now b.net +. setup_step_s)
  done;
  (b, if started b then Some (Clock.s_of_ns (Clock.now_ns () - t0)) else None)

(* ------------------------------------------------------------------ *)

type trial = {
  wall_s : float;  (** simulating [sim_s] seconds *)
  got : int;  (** deliveries within [sim_s] *)
  events : int;  (** events fired within [sim_s] *)
  lat_ms : float array;  (** simulated milliseconds, samples within [sim_s] *)
  tel_events : int;
}

type acc = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  mutable setup : float list;
  mutable fingerprint : (int * int) option;
  (* traced trials *)
  flood : probe;
  sink : probe;
  mutable slice_ns : int;
  mutable slice_proc_ns : int;
  mutable slice_calls : int;
  mutable pending_max : int;
}

let problem a fmt = Printf.ksprintf (fun s -> a.problems <- s :: a.problems) fmt

let record_setup a = function
  | Some s -> a.setup <- s :: a.setup
  | None -> problem a "a receiver never got its first message"

let trial a workload sh ~seed ~tracing ~telemetry ~spans ~index =
  let flood = if tracing then Some a.flood else None in
  let sink = if tracing then Some a.sink else None in
  let b, setup = set_up workload ~seed ~telemetry ~flood ~sink in
  record_setup a setup;
  let sim = Network.sim b.net in
  let start = Network.now b.net in
  let stop = start +. sh.sim_s in
  let e0 = Sim.events_fired sim and g0 = received b and l0 = Vec.length b.lat in
  let w0 = Clock.now_ns () in
  if tracing then begin
    (* slices of [slice_s] simulated seconds; a slice's time outside the
       algorithms' process spans is the engine's: switch, link pump,
       event heap and telemetry *)
    let k = ref 0 in
    while Network.now b.net < stop do
      let until = Float.min stop (start +. (float_of_int (!k + 1) *. slice_s)) in
      let p0 = a.flood.ns + a.sink.ns and c0 = a.flood.calls + a.sink.calls in
      let s0 = Clock.now_ns () in
      Network.run b.net ~until;
      let s1 = Clock.now_ns () in
      ignore
        (Spans.add spans ~name:"network.run" ~start:s0 ~stop:s1
           ~trace:((index * 1000) + !k) ());
      a.slice_ns <- a.slice_ns + (s1 - s0);
      a.slice_proc_ns <- a.slice_proc_ns + (a.flood.ns + a.sink.ns - p0);
      a.slice_calls <- a.slice_calls + (a.flood.calls + a.sink.calls - c0);
      a.pending_max <- max a.pending_max (Sim.pending sim);
      incr k
    done
  end
  else Network.run b.net ~until:stop;
  let wall_s = Clock.s_of_ns (Clock.now_ns () - w0) in
  let events = Sim.events_fired sim - e0 and got = received b - g0 in
  let l1 = Vec.length b.lat in
  List.iter Source.stop b.sources;
  let rec drain until =
    Network.run b.net ~until;
    if (not (complete b)) && until < stop +. drain_limit_s then drain (until +. 0.05)
  in
  drain (stop +. 0.05);
  let exp = expected b and ok = received b in
  let bad = List.fold_left (fun n r -> n + r.bad) 0 b.recvs in
  a.attempted <- a.attempted + exp;
  a.failed <- a.failed + (exp - ok);
  if not (complete b) then
    problem a "trial %d: %d of %d deliveries missing after draining" index (exp - ok) exp;
  if bad > 0 then problem a "trial %d: %d deliveries out of order or corrupted" index bad;
  (* the source fills its streams alike, so every receiver must have
     received the same number of 1 KB messages *)
  (match b.recvs with
  | (r0 : recv) :: rest when List.exists (fun (r : recv) -> r.got <> r0.got) rest ->
    a.failed <- a.failed + 1;
    problem a "trial %d: receivers got unequal byte counts" index
  | _ -> ());
  (* events and deliveries after draining; a telemetry-off rerun is
     another deployment, so it is not compared *)
  let fingerprint = (Sim.events_fired sim, ok) in
  if telemetry = sh.telemetry then begin
    match a.fingerprint with
    | None -> a.fingerprint <- Some fingerprint
    | Some f when f <> fingerprint ->
      a.failed <- a.failed + 1;
      problem a "trial %d: same seed, different run (%d events, %d deliveries vs %d, %d)"
        index (fst fingerprint) (snd fingerprint) (fst f) (snd f)
    | Some _ -> ()
  end;
  {
    wall_s; got; events;
    lat_ms = Array.init (l1 - l0) (fun i -> float_of_int (Vec.get b.lat (l0 + i)) /. 1e6);
    tel_events = (match b.tel with Some t -> Tel.total_events t | None -> 0);
  }

(* Pops and re-pushes at a fixed depth, as the simulator's event queue
   does in steady state. *)
let heap_push_pop_ns ~depth =
  let depth = max 1 depth in
  let st = Random.State.make [| depth |] in
  let h = Heap.create () in
  for i = 0 to depth - 1 do
    Heap.push h ~time:(Random.State.float st 1.) ~seq:i ()
  done;
  let n = 200_000 in
  let gaps = Array.init 1024 (fun _ -> Random.State.float st 1.) in
  let t0 = Clock.now_ns () in
  for i = 0 to n - 1 do
    match Heap.pop h with
    | Some (t, _, ()) -> Heap.push h ~time:(t +. gaps.(i land 1023)) ~seq:(depth + i) ()
    | None -> ()
  done;
  float_of_int (Clock.now_ns () - t0) /. float_of_int n

let run ~workload ~seed ~seconds ~trace ~spans =
  let sh = Option.get (shape workload) in
  let a =
    {
      attempted = 0; failed = 0; problems = []; setup = []; fingerprint = None;
      flood = new_probe (); sink = new_probe (); slice_ns = 0; slice_proc_ns = 0;
      slice_calls = 0; pending_max = 0;
    }
  in
  (* a traced run cycles through untraced, traced and, where telemetry
     is on, telemetry-off trials: the untraced ones are the base of
     trace.overhead_ratio and telemetry.overhead_ratio *)
  let cycle =
    if not trace then [| `Plain |]
    else if sh.telemetry then [| `Plain; `Traced; `Telemetry_off |]
    else [| `Plain; `Traced |]
  in
  let c = Array.length cycle in
  let per_kind = max 3 (int_of_float (Float.round (seconds /. sh.trial_s /. float_of_int c))) in
  let all =
    List.init (per_kind * c) (fun n ->
        let kind = cycle.(n mod c) in
        ( kind,
          trial a workload sh ~seed ~index:n ~spans ~tracing:(kind = `Traced)
            ~telemetry:(sh.telemetry && kind <> `Telemetry_off) ))
  in
  let of_kind k = List.filter_map (fun (k', t) -> if k' = k then Some t else None) all in
  let trials = of_kind `Plain in
  while List.length a.setup < setups do
    record_setup a
      (snd (set_up workload ~seed ~telemetry:sh.telemetry ~flood:None ~sink:None))
  done;
  let med f l = Stats.median (Array.of_list (List.map f l)) in
  let per_sim t = t.wall_s /. sh.sim_s in
  let lat p =
    Report.scale (med per_sim trials) (Report.pooled ~p (List.map (fun t -> t.lat_ms) trials))
  in
  let e2e =
    [
      ( "msgs_per_s",
        Report.of_trials
          (Array.of_list (List.map (fun t -> float_of_int t.got /. t.wall_s) trials)) );
      ("lat_p50_ms", lat 50.);
      ("lat_p99_ms", lat 99.);
      ("setup_s", Report.of_trials (Array.of_list a.setup));
    ]
  in
  let layers =
    if not trace then []
    else begin
      let traced = of_kind `Traced in
      let tel_ratio =
        if sh.telemetry then med per_sim trials /. med per_sim (of_kind `Telemetry_off)
        else 0.
      in
      let pct v p =
        if Vec.length v = 0 then 0. else Stats.percentile (Vec.to_floats v ~scale:1.) p
      in
      let self = float_of_int (a.slice_ns - a.slice_proc_ns) in
      let traced_events = List.fold_left (fun n t -> n + t.events) 0 traced in
      [
        ("load.offered", float_of_int a.attempted);
        ("load.delivered", float_of_int (a.attempted - a.failed));
        ("load.gen_late_ms.p99", 0.);
        ("onet.send_block_us.p50", 0.);
        ("onet.send_block_us.p99", 0.);
        ("onet.send_block_share", 0.);
        ("onet.writes_per_msg", 0.);
        ("onet.msgs_per_flush", 0.);
        ("onet.hop1_us.p50", 0.);
        ("onet.hop1_us.p99", 0.);
        ("onet.hop2_us.p50", 0.);
        ("onet.hop2_us.p99", 0.);
        ("onet.hop3_us.p50", 0.);
        ("onet.hop3_us.p99", 0.);
        ("algorithm.process_ns.p50", pct a.flood.samples 50.);
        ("algorithm.process_ns.p99", pct a.flood.samples 99.);
        ("algorithm.calls", float_of_int a.flood.calls);
        ("dsim.events", med (fun t -> float_of_int t.events) trials);
        ("dsim.events_per_s", med (fun t -> float_of_int t.events /. t.wall_s) trials);
        ("dsim.pending_max", float_of_int a.pending_max);
        ("dsim.heap.push_pop_ns", heap_push_pop_ns ~depth:a.pending_max);
        ("dsim.wall_s_per_sim_s", med per_sim trials);
        ("core.network.self_ns_per_event", self /. float_of_int (max 1 traced_events));
        ("core.network.self_ns_per_switch", self /. float_of_int (max 1 a.slice_calls));
        ("telemetry.overhead_ratio", tel_ratio);
        ("telemetry.events_total", med (fun t -> float_of_int t.tel_events) trials);
        ("trace.overhead_ratio", med per_sim traced /. med per_sim trials);
      ]
      @ Replay.layers
          [ Replay.run ~spans ~payload:payload_size ~batch:1
              ~msgs:(Replay.msgs_for ~payload:payload_size) ]
    end
  in
  {
    Report.attempted = a.attempted;
    failed = a.failed;
    problems = List.rev a.problems;
    e2e;
    layers;
  }
