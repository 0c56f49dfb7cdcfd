(* The benchmark's vocabulary: its workloads and the metrics it prints.
   BENCHMARK.json at the repository root restates these lists; a test
   keeps the two identical, and {!result_line} refuses to print a metric
   set that differs from them. *)

type better = Higher | Lower

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float;  (** end-to-end metrics only; 0 for per-layer ones *)
  floor : float;
      (** an absolute change, in [unit], that [agree] always tolerates
          even where it exceeds [bound]; 0 for none *)
  moves : string;  (** what the metric should move, and where *)
}

(* Each reason names the metrics that are derived from another on that
   workload rather than measured on their own, so that a later change
   does not count their verdicts as separate evidence. *)
let workloads =
  [
    ( "sock-stream-64",
      "client to sink over loopback TCP, 64 B, closed loop, 8192-message \
       buffers: per-message cost dominates; lat_* derived (window / \
       msgs_per_s)" );
    ( "sock-relay-1k",
      "client, two Flood relays, sink; 1 KB, closed loop, default \
       16-message buffers: the paper's relay chain on real sockets; lat_* \
       derived (window / msgs_per_s)" );
    ( "sock-paced-300",
      "relay chain, 256 B, seeded Poisson arrivals at 300 msg/s: latency \
       from engine wake-up, batching bypassed; msgs_per_s derived (offered \
       rate)" );
    ( "sock-paced-1200",
      "relay chain, 256 B, seeded Poisson arrivals at 1200 msg/s: \
       wake-up latency plus queueing; msgs_per_s derived (offered rate)" );
    ( "sim-tree-512",
      "simulator, 512-node binary Flood tree, 1 KB back-to-back source, \
       telemetry off: event heap and link pump at scale; lat_* derived \
       (simulated latency scaled by 1/msgs_per_s)" );
    ( "sim-fanin-128",
      "simulator, 128 sources into one Flood collector, telemetry on: \
       switch round-robin at in-degree 128 and telemetry cost; lat_* \
       derived (simulated latency scaled by 1/msgs_per_s)" );
  ]

let e2e ?(floor = 0.) name unit better bound =
  { name; unit; better; bound; floor; moves = "" }

let end_to_end =
  [
    e2e "msgs_per_s" "1/s" Higher 0.10;
    e2e "lat_p50_ms" "ms" Lower 0.10;
    e2e "lat_p99_ms" "ms" Lower 0.10;
    e2e "setup_s" "s" Lower 0.25 ~floor:0.02;
    e2e "peak_rss_mb" "MB" Lower 0.15;
  ]

let layer name unit better moves =
  { name; unit; better; bound = 0.; floor = 0.; moves }

let sock_tput = "msgs_per_s on sock-stream-64 and sock-relay-1k"
let paced_lat = "lat_* on sock-paced-300 and sock-paced-1200"
let stream = "msgs_per_s on sock-stream-64"
let relay_floor = "msgs_per_s on sock-relay-1k (its floor)"
let algo = "msgs_per_s on sock-relay-1k and sim-tree-512"
let tree = "msgs_per_s and lat_* on sim-tree-512"
let sims = "msgs_per_s and lat_* on sim-tree-512 and sim-fanin-128"
let fanin = "msgs_per_s and lat_* on sim-fanin-128"

let per_layer =
  [
    layer "load.offered" "count" Higher "validity of every workload";
    layer "load.delivered" "count" Higher "validity of every workload";
    layer "load.gen_late_ms.p99" "ms" Lower ("validity of " ^ paced_lat);
    layer "onet.send_block_us.p50" "us" Lower sock_tput;
    layer "onet.send_block_us.p99" "us" Lower sock_tput;
    layer "onet.send_block_share" "frac" Lower sock_tput;
    layer "onet.writes_per_msg" "1/msg" Lower stream;
    layer "onet.msgs_per_flush" "msg" Higher stream;
    layer "onet.hop1_us.p50" "us" Lower (paced_lat ^ "; msgs_per_s on sock-relay-1k");
    layer "onet.hop1_us.p99" "us" Lower (paced_lat ^ "; msgs_per_s on sock-relay-1k");
    layer "onet.hop2_us.p50" "us" Lower (paced_lat ^ "; msgs_per_s on sock-relay-1k");
    layer "onet.hop2_us.p99" "us" Lower (paced_lat ^ "; msgs_per_s on sock-relay-1k");
    layer "onet.hop3_us.p50" "us" Lower (paced_lat ^ "; msgs_per_s on sock-relay-1k");
    layer "onet.hop3_us.p99" "us" Lower (paced_lat ^ "; msgs_per_s on sock-relay-1k");
    layer "onet.squeue.handoff_ns_per_msg" "ns" Lower sock_tput;
    layer "onet.batcher.add_ns_per_msg" "ns" Lower stream;
    layer "onet.batcher.flush_self_ns_per_batch" "ns" Lower stream;
    layer "message.encode_ns_per_msg" "ns" Lower stream;
    layer "message.parse_ns_per_msg" "ns" Lower stream;
    layer "kernel.write_ns_per_kb" "ns/KB" Lower relay_floor;
    layer "kernel.read_ns_per_kb" "ns/KB" Lower relay_floor;
    layer "algorithm.process_ns.p50" "ns" Lower algo;
    layer "algorithm.process_ns.p99" "ns" Lower algo;
    layer "algorithm.calls" "count" Higher algo;
    layer "dsim.events" "count" Lower sims;
    layer "dsim.events_per_s" "1/s" Higher sims;
    layer "dsim.pending_max" "count" Lower tree;
    layer "dsim.heap.push_pop_ns" "ns" Lower tree;
    layer "dsim.wall_s_per_sim_s" "s/s" Lower sims;
    layer "core.network.self_ns_per_event" "ns" Lower fanin;
    layer "core.network.self_ns_per_switch" "ns" Lower fanin;
    layer "telemetry.overhead_ratio" "ratio" Lower fanin;
    layer "telemetry.events_total" "count" Lower fanin;
    layer "telemetry.record_ns" "ns" Lower fanin;
    layer "trace.overhead_ratio" "ratio" Lower "disclosure: traced cost over untraced";
  ]

let better_string = function Higher -> "higher" | Lower -> "lower"

let find_metric name =
  List.find_opt (fun m -> m.name = name) (end_to_end @ per_layer)

(* The result line: exactly the metrics of [defs], in their order.
   @raise Invalid_argument if [values] names a metric outside [defs] or
   misses one of them. *)
let result_line ~correct ~attempted ~failed defs values =
  List.iter
    (fun (k, _) ->
      if not (List.exists (fun m -> m.name = k) defs) then
        invalid_arg ("Defs.result_line: undeclared metric " ^ k))
    values;
  let metrics =
    List.map
      (fun m ->
        match List.assoc_opt m.name values with
        | Some v ->
          (m.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.unit) ])
        | None -> invalid_arg ("Defs.result_line: missing metric " ^ m.name))
      defs
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ("metrics", Json.Obj metrics);
       ])
