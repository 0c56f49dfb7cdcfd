(* Socket workloads: real Rnode instances over loopback TCP in this one
   process. One client thread (the caller's) feeds one client node,
   whose single connection carries the load into an optional chain of
   Flood relays and on to a sink.

   The sink's algorithm is the verdict: every message must arrive
   exactly once, in sequence order, with the seeded payload intact.
   All nodes share {!Clock}, so the due time stamped in a payload by the
   client is directly comparable with the sink's arrival time. *)

open Perfbench
module Rnode = Iov_onet.Rnode
module Alg = Iov_core.Algorithm
module Msg = Iov_msg.Message
module Mt = Iov_msg.Mtype
module NI = Iov_msg.Node_id
module Flood = Iov_algos.Flood
module Tel = Iov_telemetry.Telemetry
module Metrics = Iov_telemetry.Metrics

let app = 1

(* Traced runs follow one message in [stride], starting with the first
   after the probe, so that even a trial shorter than [stride] messages
   has one; message [k * stride + 1] keeps its stamps at index [k]. *)
let stride = 16
let traced seq = seq land (stride - 1) = 1

type shape = {
  relays : int;
  payload : int;
  buffers : int;  (** messages per receiver and sender buffer *)
  load : [ `Window of int | `Rate of float ];
      (** closed loop with at most this many messages in flight, or
          open loop at this many messages per second *)
  lat_every : int;  (** a power of two: one latency sample per this many *)
  trial_s : float;  (** measured seconds per trial; a run fits [--seconds] *)
}

(* A closed loop's window fills every runtime queue on the path (the
   client's sender buffer, then a receiver and a sender buffer per
   relay, then the sink's receiver buffer) and no more: a larger window
   would only park messages in kernel socket buffers, whose autotuned
   size would then set the latency. *)
let window ~relays ~buffers = 2 * (relays + 1) * buffers

let default_buffers = 16

(* The open-loop trials are short and many. Every engine parks in
   [select] for up to 10 ms when idle and restarts that period after
   each batch it switches, so along a chain the relative phases of the
   engines' periods are fixed for a node's lifetime and set a constant
   share of every message's latency. Only fresh nodes draw fresh
   phases: the latency percentiles are pooled over about two hundred
   chains, not over a few long-lived ones. *)
let shape = function
  | "sock-stream-64" ->
    Some { relays = 0; payload = 64; buffers = 8192;
           load = `Window (window ~relays:0 ~buffers:8192); lat_every = 64; trial_s = 1.25 }
  | "sock-relay-1k" ->
    Some { relays = 2; payload = 1024; buffers = default_buffers;
           load = `Window (window ~relays:2 ~buffers:default_buffers); lat_every = 1;
           trial_s = 1. }
  | "sock-paced-300" ->
    Some { relays = 2; payload = 256; buffers = default_buffers; load = `Rate 300.;
           lat_every = 1; trial_s = 0.05 }
  | "sock-paced-1200" ->
    Some { relays = 2; payload = 256; buffers = default_buffers; load = `Rate 1200.;
           lat_every = 1; trial_s = 0.05 }
  | _ -> None

let warmup_s = 0.3
let drain_s = 5.

(* Set-up is timed this many times per run: every trial sets up a fresh
   chain, and set-up-only rounds make up the rest. *)
let setups = 8

let ns_of_s s = int_of_float (s *. 1e9)

let wait_until ~within cond =
  let limit = Clock.now_ns () + ns_of_s within in
  while (not (cond ())) && Clock.now_ns () < limit do
    Thread.delay 0.0005
  done;
  cond ()

(* ------------------------------------------------------------------ *)
(* The sink                                                            *)

type sink = {
  pay : Payload.t;
  lat_mask : int;
  tracing : bool;
  mutable next : int;  (** the sequence number due next *)
  mutable ok : int;
  mutable bad : int;
  mutable first_ns : int;  (** arrival of seq 0, the set-up probe *)
  mutable last_ns : int;
  lat : Vec.t;  (** one-way latency samples, ns *)
  arrive : Vec.t;  (** traced runs: arrival of message [k * stride + 1] at [k] *)
}

let make_sink ~pay ~lat_every ~tracing =
  { pay; lat_mask = lat_every - 1; tracing; next = 0; ok = 0; bad = 0;
    first_ns = 0; last_ns = 0; lat = Vec.create (); arrive = Vec.create () }

let sink_alg s =
  Alg.make ~name:"bench-sink" (fun _ (m : Msg.t) ->
      if m.Msg.mtype = Mt.Data && m.Msg.app = app then begin
        let now = Clock.now_ns () in
        let seq = m.Msg.seq in
        if seq = s.next && Payload.valid s.pay m.Msg.payload ~seq then begin
          s.ok <- s.ok + 1;
          s.last_ns <- now;
          if seq = 0 then s.first_ns <- now
          else if seq land s.lat_mask = 0 then
            Vec.push s.lat (now - Payload.stamp m.Msg.payload);
          if s.tracing && traced seq then Vec.set s.arrive (seq / stride) now
        end
        else s.bad <- s.bad + 1;
        s.next <- seq + 1
      end;
      Alg.Consume)

(* ------------------------------------------------------------------ *)
(* Traced relays: the Flood algorithm wrapped from outside             *)

type relay = {
  r_in : Vec.t;  (** entry into process, by traced index *)
  r_out : Vec.t;  (** exit from process, by traced index *)
  proc : Vec.t;  (** one process duration in [stride] calls, ns *)
  mutable calls : int;
}

let new_relay () =
  { r_in = Vec.create (); r_out = Vec.create (); proc = Vec.create (); calls = 0 }

let wrap_relay rt (alg : Alg.t) =
  {
    alg with
    Alg.process =
      (fun ctx (m : Msg.t) ->
        let t0 = Clock.now_ns () in
        let v = alg.Alg.process ctx m in
        let t1 = Clock.now_ns () in
        rt.calls <- rt.calls + 1;
        if rt.calls land (stride - 1) = 0 then Vec.push rt.proc (t1 - t0);
        if m.Msg.mtype = Mt.Data && traced m.Msg.seq then begin
          Vec.set rt.r_in (m.Msg.seq / stride) t0;
          Vec.set rt.r_out (m.Msg.seq / stride) t1
        end;
        v);
  }

(* ------------------------------------------------------------------ *)
(* The chain                                                           *)

type chain = {
  client : Rnode.t;
  relays : Rnode.t list;
  sink_node : Rnode.t;
  hop : NI.t;  (** the client's only peer *)
  tels : Tel.t list;  (** traced runs: one deployment per node *)
}

let start_chain sh ~sink ~relay_traces =
  let tels = ref [] in
  let start alg =
    let telemetry =
      if sink.tracing then begin
        let tl = Tel.create ~ring_capacity:256 () in
        tels := tl :: !tels;
        Some tl
      end
      else None
    in
    Rnode.start ~buffer_capacity:sh.buffers ?telemetry alg
  in
  let sink_node = start (sink_alg sink) in
  let next = ref (Rnode.id sink_node) and relays = ref [] in
  for k = sh.relays - 1 downto 0 do
    let f = Flood.create () in
    Flood.set_route f ~app ~downstreams:[ !next ] ();
    let alg = Flood.algorithm f in
    let r =
      start (match relay_traces with Some a -> wrap_relay a.(k) alg | None -> alg)
    in
    next := Rnode.id r;
    relays := r :: !relays
  done;
  let client = start Alg.null in
  { client; relays = !relays; sink_node; hop = !next; tels = !tels }

(* Each engine finishes its current [select] park before it stops;
   stopping the nodes side by side overlaps those waits. *)
let stop_chain c =
  List.map (Thread.create Rnode.shutdown) ((c.client :: c.relays) @ [ c.sink_node ])
  |> List.iter Thread.join

let send c pay ~seq ~due =
  Rnode.send c.client
    (Msg.data ~origin:(Rnode.id c.client) ~app ~seq (Payload.make pay ~seq ~stamp:due))
    c.hop

(* Starts a chain and times it until the probe (seq 0) reaches the
   sink's algorithm. [None] if the probe never arrives. *)
let set_up sh ~sink ~relay_traces pay =
  let t0 = Clock.now_ns () in
  let c = start_chain sh ~sink ~relay_traces in
  send c pay ~seq:0 ~due:t0;
  if wait_until ~within:drain_s (fun () -> sink.next >= 1) && sink.ok = 1 then
    (c, Some (Clock.s_of_ns (sink.first_ns - t0)))
  else (c, None)

(* ------------------------------------------------------------------ *)
(* Counters the runtime already exports                                *)

let onet_counters tels =
  List.fold_left
    (fun (sys, msgs, flushes) tl ->
      List.fold_left
        (fun (sys, msgs, flushes) (name, snap) ->
          let ends s = String.ends_with ~suffix:s name in
          match snap with
          | Metrics.Counter n when ends ".onet.syscalls_total" -> (sys + n, msgs, flushes)
          | Metrics.Counter n when ends ".onet.batched_msgs" -> (sys, msgs + n, flushes)
          | Metrics.Histogram h when ends ".onet.batch_bytes" ->
            (sys, msgs, flushes + h.count)
          | _ -> (sys, msgs, flushes))
        (sys, msgs, flushes)
        (Metrics.snapshot (Tel.metrics tl)))
    (0, 0, 0) tels

(* ------------------------------------------------------------------ *)
(* A run                                                               *)

type acc = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  mutable setup : float list;
  mutable rates : float list;  (** untraced trials *)
  mutable lats : float array list;  (** untraced trials, ms *)
  mutable t_rates : float list;  (** traced trials *)
  mutable t_lats : float array list;
  (* traced-run layers *)
  late : Vec.t;
  send_ns : Vec.t;
  hops : Vec.t array;
  proc : Vec.t;
  mutable calls : int;
  mutable offered : int;
  mutable delivered : int;
  mutable send_share : float list;
  mutable syscalls : int;
  mutable batched : int;
  mutable flushes : int;
  mutable tel_events : int;
  mutable replays : Replay.result list;
}

let hop_names = [| "onet.hop1"; "onet.hop2"; "onet.hop3" |]
let process_names = [| "relay1.process"; "relay2.process" |]

let problem a fmt = Printf.ksprintf (fun s -> a.problems <- s :: a.problems) fmt

(* Joins the stamps of each traced message into its span tree and the
   per-hop samples. Each child is the interval between two consecutive
   stamps (due, send entry, send exit, each relay's process entry and
   exit, arrival), so a hop is by definition the residual between the
   stamps around it, and the children tile the message's latency with
   no gap or overlap. *)
let decompose a spans ~sent ~due ~s0 ~s1 ~(relays : relay array) ~arrive =
  for k = 0 to (sent - 2) / stride do
    let seq = (k * stride) + 1 in
    let st v = Vec.find v k in
    let marks =
      [ st due; st s0; st s1 ]
      @ List.concat_map (fun r -> [ st r.r_in; st r.r_out ]) (Array.to_list relays)
      @ [ st arrive ]
    in
    if not (List.mem Vec.absent marks) then begin
      let m = Array.of_list marks in
      let last = Array.length m - 1 in
      let root =
        Spans.add spans ~name:"message" ~start:m.(0) ~stop:m.(last) ~trace:seq ()
      in
      let child name i =
        ignore
          (Spans.add spans ~name ~start:m.(i) ~stop:m.(i + 1) ~parent:root ~trace:seq ())
      in
      child "load.gen_late" 0;
      child "onet.send" 1;
      Vec.push a.late (m.(1) - m.(0));
      Vec.push a.send_ns (m.(2) - m.(1));
      (* from the send's exit: hop, process, hop, process, ..., hop *)
      for h = 0 to Array.length relays do
        let i = 2 + (2 * h) in
        child hop_names.(h) i;
        Vec.push a.hops.(h) (m.(i + 1) - m.(i));
        if h < Array.length relays then child process_names.(h) (i + 1)
      done
    end
  done

let trial a sh ~seed ~index ~window_s ~tracing ~spans =
  let pay = Payload.create ~seed ~size:sh.payload in
  let sink = make_sink ~pay ~lat_every:sh.lat_every ~tracing in
  let relay_traces =
    if tracing then Some (Array.init sh.relays (fun _ -> new_relay ())) else None
  in
  let c, setup = set_up sh ~sink ~relay_traces pay in
  let due_v = Vec.create () and s0_v = Vec.create () and s1_v = Vec.create () in
  let seq = ref 1 in
  let load_start = Clock.now_ns () in
  let last_sent = ref load_start in
  let send_at due =
    let s = !seq in
    let s0 = Clock.now_ns () in
    send c pay ~seq:s ~due;
    if tracing then begin
      let s1 = Clock.now_ns () in
      last_sent := s1;
      if traced s then begin
        Vec.set due_v (s / stride) due;
        Vec.set s0_v (s / stride) s0;
        Vec.set s1_v (s / stride) s1
      end
    end;
    incr seq
  in
  let span_ns = ns_of_s window_s in
  let rate, lat =
    match setup with
    | None ->
      problem a "trial %d: the set-up probe never reached the sink" index;
      (0., [||])
    | Some s -> (
      a.setup <- s :: a.setup;
      match sh.load with
      | `Window w ->
        (* a full window sleeps until the sink catches up *)
        let rec until t =
          let now = Clock.now_ns () in
          if now < t then begin
            if !seq - sink.next >= w then Thread.delay 50e-6 else send_at now;
            until t
          end
        in
        until (Clock.now_ns () + ns_of_s warmup_s);
        let ok0 = sink.ok and l0 = Vec.length sink.lat and w0 = Clock.now_ns () in
        until (w0 + span_ns);
        let ok1 = sink.ok and l1 = Vec.length sink.lat and w1 = Clock.now_ns () in
        let lat = Array.init (l1 - l0) (fun i -> float_of_int (Vec.get sink.lat (l0 + i)) /. 1e6) in
        (float_of_int (ok1 - ok0) /. Clock.s_of_ns (w1 - w0), lat)
      | `Rate rate ->
        (* sleep until the next message is due, then send everything
           due: a spinning generator would hold the runtime lock the
           node threads need *)
        let offs = Sched.poisson ~seed:((seed * 1000) + index) ~rate ~duration:window_s in
        let t0 = Clock.now_ns () + 10_000_000 in
        Array.iter
          (fun off ->
            let due = t0 + ns_of_s off in
            let now = Clock.now_ns () in
            if due > now then Thread.delay (Clock.s_of_ns (due - now));
            send_at due)
          offs;
        ignore (wait_until ~within:drain_s (fun () -> sink.next >= !seq));
        (* intact deliveries after the probe, over the time from the
           schedule's start to the last of them *)
        let delivered = sink.ok - 1 in
        let lat = Array.init (Vec.length sink.lat) (fun i -> float_of_int (Vec.get sink.lat i) /. 1e6) in
        ( (if delivered <= 0 then 0.
           else float_of_int delivered /. Clock.s_of_ns (sink.last_ns - t0)),
          lat ))
  in
  let sent = !seq in
  if not (wait_until ~within:drain_s (fun () -> sink.next >= sent)) then
    problem a "trial %d: %d of %d messages never reached the sink" index
      (sent - sink.next) sent;
  if sink.bad > 0 then
    problem a "trial %d: %d messages out of order, duplicated or corrupted" index
      sink.bad;
  a.attempted <- a.attempted + sent;
  a.failed <- a.failed + (sent - sink.ok);
  let sys, msgs, flushes = onet_counters c.tels in
  let tel_events = List.fold_left (fun n tl -> n + Tel.total_events tl) 0 c.tels in
  stop_chain c;
  if tracing then begin
    a.syscalls <- a.syscalls + sys;
    a.batched <- a.batched + msgs;
    a.flushes <- a.flushes + flushes;
    a.tel_events <- a.tel_events + tel_events;
    let relays = Option.value relay_traces ~default:[||] in
    decompose a spans ~sent ~due:due_v ~s0:s0_v ~s1:s1_v ~relays ~arrive:sink.arrive;
    Array.iter
      (fun (r : relay) ->
        a.calls <- a.calls + r.calls;
        for i = 0 to Vec.length r.proc - 1 do
          Vec.push a.proc (Vec.get r.proc i)
        done)
      relays;
    a.offered <- a.offered + (sent - 1);
    a.delivered <- a.delivered + max 0 (sink.ok - 1);
    (* traced sends stand for [stride] sends each *)
    let traced_send = ref 0 in
    for i = 0 to Vec.length s1_v - 1 do
      let s0 = Vec.get s0_v i and s1 = Vec.get s1_v i in
      if s0 <> Vec.absent then traced_send := !traced_send + (s1 - s0)
    done;
    a.send_share <-
      (float_of_int (!traced_send * stride) /. float_of_int (max 1 (!last_sent - load_start)))
      :: a.send_share;
    let batch = if flushes = 0 then 1 else max 1 (msgs / flushes) in
    a.replays <-
      Replay.run ~spans ~payload:sh.payload ~batch ~msgs:(Replay.msgs_for ~payload:sh.payload)
      :: a.replays
  end;
  (rate, lat)

let setup_only a sh ~seed =
  let pay = Payload.create ~seed ~size:sh.payload in
  let sink = make_sink ~pay ~lat_every:sh.lat_every ~tracing:false in
  let c, setup = set_up sh ~sink ~relay_traces:None pay in
  a.attempted <- a.attempted + 1;
  (match setup with
  | Some s -> a.setup <- s :: a.setup
  | None ->
    a.failed <- a.failed + 1;
    problem a "set-up round: the probe never reached the sink");
  stop_chain c

let us_pct v p =
  if Vec.length v = 0 then 0.
  else Stats.percentile (Vec.to_floats v ~scale:1e-3) p

let run ~workload ~seed ~seconds ~trace ~spans =
  let sh = Option.get (shape workload) in
  let a =
    {
      attempted = 0; failed = 0; problems = []; setup = []; rates = []; lats = [];
      t_rates = []; t_lats = []; late = Vec.create (); send_ns = Vec.create ();
      hops = Array.init 3 (fun _ -> Vec.create ()); proc = Vec.create ();
      calls = 0; offered = 0; delivered = 0;
      send_share = []; syscalls = 0; batched = 0; flushes = 0; tel_events = 0;
      replays = [];
    }
  in
  let trials = max 4 (int_of_float (Float.round (seconds /. sh.trial_s))) in
  for _ = 1 to setups - trials do
    setup_only a sh ~seed
  done;
  let window_s = seconds /. float_of_int trials in
  (* a traced run alternates untraced and traced trials; the untraced
     ones are the base of trace.overhead_ratio *)
  let plan = List.init trials (fun i -> trace && i land 1 = 1) in
  List.iteri
    (fun index tracing ->
      let rate, lat = trial a sh ~seed ~index ~window_s ~tracing ~spans in
      if tracing then begin
        a.t_rates <- rate :: a.t_rates;
        a.t_lats <- lat :: a.t_lats
      end
      else begin
        a.rates <- rate :: a.rates;
        a.lats <- lat :: a.lats
      end)
    plan;
  (* a closed-loop trial holds thousands of samples and gives its own
     percentiles, of which the run reports the median; an open-loop
     trial holds a few dozen, so the run pools them *)
  let lat ~p lats =
    match sh.load with
    | `Window _ -> Report.median_of ~p lats
    | `Rate _ -> Report.pooled ~p lats
  in
  let e2e rates lats =
    [
      ("msgs_per_s", Report.of_trials (Array.of_list rates));
      ("lat_p50_ms", lat ~p:50. lats);
      ("lat_p99_ms", lat ~p:99. lats);
      ("setup_s", Report.of_trials (Array.of_list a.setup));
    ]
  in
  let layers =
    if not trace then []
    else begin
      let base = e2e a.rates a.lats and trc = e2e a.t_rates a.t_lats in
      let v name l = (List.assoc name l).Report.value in
      (* cost ratio: throughput's inverse on closed loops, median
         latency on open ones *)
      let overhead =
        match sh.load with
        | `Window _ -> v "msgs_per_s" base /. v "msgs_per_s" trc
        | `Rate _ -> v "lat_p50_ms" trc /. v "lat_p50_ms" base
      in
      [
        ("load.offered", float_of_int a.offered);
        ("load.delivered", float_of_int a.delivered);
        ("load.gen_late_ms.p99", us_pct a.late 99. /. 1e3);
        ("onet.send_block_us.p50", us_pct a.send_ns 50.);
        ("onet.send_block_us.p99", us_pct a.send_ns 99.);
        ("onet.send_block_share", Stats.median (Array.of_list a.send_share));
        ("onet.writes_per_msg", Replay.per a.syscalls a.batched);
        ("onet.msgs_per_flush", Replay.per a.batched a.flushes);
        ("onet.hop1_us.p50", us_pct a.hops.(0) 50.);
        ("onet.hop1_us.p99", us_pct a.hops.(0) 99.);
        ("onet.hop2_us.p50", us_pct a.hops.(1) 50.);
        ("onet.hop2_us.p99", us_pct a.hops.(1) 99.);
        ("onet.hop3_us.p50", us_pct a.hops.(2) 50.);
        ("onet.hop3_us.p99", us_pct a.hops.(2) 99.);
        ("algorithm.process_ns.p50", us_pct a.proc 50. *. 1e3);
        ("algorithm.process_ns.p99", us_pct a.proc 99. *. 1e3);
        ("algorithm.calls", float_of_int a.calls);
        ("telemetry.events_total", float_of_int a.tel_events);
        ("telemetry.overhead_ratio", 0.);
        ("trace.overhead_ratio", overhead);
        ("dsim.events", 0.);
        ("dsim.events_per_s", 0.);
        ("dsim.pending_max", 0.);
        ("dsim.heap.push_pop_ns", 0.);
        ("dsim.wall_s_per_sim_s", 0.);
        ("core.network.self_ns_per_event", 0.);
        ("core.network.self_ns_per_switch", 0.);
      ]
      @ Replay.layers a.replays
    end
  in
  {
    Report.attempted = a.attempted;
    failed = a.failed;
    problems = List.rev a.problems;
    e2e = e2e a.rates a.lats;
    layers;
  }
