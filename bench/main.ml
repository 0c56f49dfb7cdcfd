(* The benchmark harness.

   Two parts, per the repository contract:

   1. Bechamel micro-benchmarks of the engine's hot primitives — one
      [Test.make] per primitive (message codec, GF(2^8) arithmetic,
      Gaussian decoding, buffers, event queue, a full simulated switch
      hop).

   2. The paper harness: regenerates every table and figure of the
      evaluation (Fig. 5 through Fig. 19 plus Table 3), printing the
      same rows/series the paper reports.

   Usage: dune exec bench/main.exe            (both parts)
          dune exec bench/main.exe -- micro   (micro-benchmarks only)
          dune exec bench/main.exe -- paper   (experiments only)
          dune exec bench/main.exe -- quick   (everything, smaller sizes) *)

open Bechamel
open Toolkit

module Msg = Iov_msg.Message
module Codec = Iov_msg.Codec
module NI = Iov_msg.Node_id
module Gf = Iov_gf256.Gf256
module Linear = Iov_gf256.Linear
module Cqueue = Iov_core.Cqueue
module Scn = Iov_chaos.Scenario
module Inv = Iov_chaos.Invariant
module Gsw = Iov_gossip.Swim
module Gvw = Iov_gossip.View

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks                                                    *)

let sample_msg =
  Msg.data ~origin:(NI.synthetic 1) ~app:1 ~seq:42 (Bytes.make 5120 'x')

let sample_wire = Codec.encode sample_msg

let bench_codec_encode =
  Test.make ~name:"codec/encode-5KB" (Staged.stage (fun () ->
      ignore (Codec.encode sample_msg)))

let bench_codec_decode =
  Test.make ~name:"codec/decode-5KB" (Staged.stage (fun () ->
      ignore (Codec.decode sample_wire)))

let bench_gf_mul =
  Test.make ~name:"gf256/mul" (Staged.stage (fun () ->
      ignore (Gf.mul 173 92)))

(* scalar multiplication across all 256 operand values: exercises the
   flat multiplication table including the x = 0 rows *)
let bench_gf_mul_table =
  Test.make ~name:"gf256/mul-table" (Staged.stage (fun () ->
      let acc = ref 0 in
      for x = 0 to 255 do
        acc := !acc lxor Gf.mul 173 x
      done;
      ignore !acc))

let gf_vec_a = Bytes.make 5120 'a'
let gf_vec_acc = Bytes.make 5120 'b'

let bench_gf_axpy =
  Test.make ~name:"gf256/axpy-5KB" (Staged.stage (fun () ->
      Gf.axpy ~acc:gf_vec_acc ~coeff:7 gf_vec_a))

let bench_gf_axpy1 =
  Test.make ~name:"gf256/axpy1-5KB" (Staged.stage (fun () ->
      Gf.axpy ~acc:gf_vec_acc ~coeff:1 gf_vec_a))

let decode_input =
  let sources = Array.init 4 (fun i -> Bytes.make 1024 (Char.chr (65 + i))) in
  List.init 4 (fun i ->
      let coeffs = Array.init 4 (fun j -> Gf.pow (i + 2) j) in
      Linear.encode ~coeffs sources)

let bench_linear_decode =
  Test.make ~name:"linear/decode-4x1KB" (Staged.stage (fun () ->
      ignore (Linear.decode decode_input)))

(* a full generation through the one-packet-at-a-time decoder: 16
   sources of 4 KB, a full-rank Vandermonde-style coefficient matrix,
   plus one dependent and one duplicate packet mixed in (the traffic a
   receiving overlay node actually sees) *)
let incr_decode_input =
  let k = 16 in
  let sources = Array.init k (fun i -> Bytes.make 4096 (Char.chr (33 + i))) in
  let packets =
    List.init k (fun i ->
        let coeffs = Array.init k (fun j -> Gf.pow (i + 2) j) in
        Linear.encode ~coeffs sources)
  in
  match packets with
  | first :: _ ->
    (* a linear combination of the first two, then an exact duplicate *)
    let dep = Linear.combine [ (3, List.nth packets 0); (5, List.nth packets 1) ] in
    (k, List.concat [ [ first; dep; first ]; List.tl packets ])
  | [] -> assert false

let bench_incremental_decode =
  Test.make ~name:"linear/incremental-decode-16x4KB"
    (Staged.stage (fun () ->
         let k, packets = incr_decode_input in
         let d = Linear.Decoder.create ~k in
         List.iter (fun p -> ignore (Linear.Decoder.add d p)) packets;
         assert (Linear.Decoder.complete d)))

let bench_cqueue =
  Test.make ~name:"cqueue/push-pop"
    (Staged.stage
       (let q = Cqueue.create ~capacity:64 in
        fun () ->
          ignore (Cqueue.push q 1);
          ignore (Cqueue.pop q)))

(* a full simulated second of a 3-node chain: source, switch, sink *)
let bench_switch_hop =
  Test.make ~name:"engine/3-node-chain-1s"
    (Staged.stage (fun () ->
         let net = Iov_core.Network.create () in
         let src =
           Iov_algos.Source.create ~payload_size:1024 ~app:1
             ~dests:[ NI.synthetic 2 ] ()
         in
         ignore
           (Iov_core.Network.add_node net ~id:(NI.synthetic 1)
              (Iov_algos.Source.algorithm src));
         let f = Iov_algos.Flood.create () in
         Iov_algos.Flood.set_route f ~app:1
           ~upstreams:[ NI.synthetic 1 ]
           ~downstreams:[ NI.synthetic 3 ] ();
         ignore
           (Iov_core.Network.add_node net ~id:(NI.synthetic 2)
              (Iov_algos.Flood.algorithm f));
         ignore
           (Iov_core.Network.add_node net ~id:(NI.synthetic 3)
              Iov_core.Algorithm.null);
         Iov_core.Network.run net ~until:1.))

(* a simulated second of one switch fanning every message out to eight
   sinks: the switched message must share its payload across all eight
   out-links, so the per-destination cost is queueing, not copying *)
let fanout_8way_run ?telemetry () =
  let net = Iov_core.Network.create ?telemetry () in
  let sinks = List.init 8 (fun i -> NI.synthetic (10 + i)) in
  let src =
    Iov_algos.Source.create ~payload_size:1024 ~app:1
      ~dests:[ NI.synthetic 2 ] ()
  in
  ignore
    (Iov_core.Network.add_node net ~id:(NI.synthetic 1)
       (Iov_algos.Source.algorithm src));
  let f = Iov_algos.Flood.create () in
  Iov_algos.Flood.set_route f ~app:1
    ~upstreams:[ NI.synthetic 1 ]
    ~downstreams:sinks ();
  ignore
    (Iov_core.Network.add_node net ~id:(NI.synthetic 2)
       (Iov_algos.Flood.algorithm f));
  List.iter
    (fun s ->
      ignore (Iov_core.Network.add_node net ~id:s Iov_core.Algorithm.null))
    sinks;
  Iov_core.Network.run net ~until:1.

(* telemetry compiled in but not attached — the baseline the telemetry
   overhead budget is measured against *)
let bench_fanout_8way =
  Test.make ~name:"engine/fanout-8way"
    (Staged.stage (fun () -> fanout_8way_run ()))

(* same workload with a live telemetry deployment: every event site
   records into the flight recorder and bumps counters/histograms *)
let bench_fanout_8way_telem =
  Test.make ~name:"engine/fanout-8way-telem"
    (Staged.stage (fun () ->
         let telemetry = Iov_telemetry.Telemetry.create () in
         fanout_8way_run ~telemetry ()))

(* compiling a churn-heavy chaos scenario: every churn interval and
   victim pick is sampled here, at compile time, so this is the entire
   stochastic cost of a deterministic chaos run *)
let chaos_scenario =
  Scn.parse
    "scenario bench-churn seed=7\n\
     churn nodes=* pick=8 start=1 stop=300 down=exp:5 up=const:2\n\
     flap link=n1->n2 start=2 stop=120 period=const:4 down=const:1\n\
     loss link=n2->n3 p=0.1 corrupt=0.02 at=3 clear=200\n\
     expect no-delivery-after-teardown grace=0.5\n\
     expect domino-completes within=2\n\
     expect reconverge within=10\n\
     expect min-events 100\n"

let chaos_nodes = List.init 16 (fun i -> Printf.sprintf "n%d" (i + 1))

let bench_chaos_compile =
  Test.make ~name:"chaos/compile-churn-16"
    (Staged.stage (fun () ->
         ignore (Scn.compile chaos_scenario ~nodes:chaos_nodes)))

(* checking the recovery invariants of the bundled smoke scenario over
   its real telemetry trace; the simulated run happens once, at staging
   time, so the measurement is the pure trace-checking pass *)
let bench_chaos_check =
  Test.make ~name:"chaos/invariant-check"
    (Staged.stage
       (let o =
          match Iov_exp.Chaoslab.run_builtin ~quiet:true "smoke" with
          | Some o -> o
          | None -> assert false
        in
        let scenario = o.Iov_exp.Chaoslab.scenario in
        let actions =
          Scn.compile scenario ~nodes:[ "A"; "B"; "C"; "D"; "E"; "F"; "G" ]
        in
        let events =
          Iov_telemetry.Telemetry.events o.Iov_exp.Chaoslab.telemetry
        in
        let horizon = o.Iov_exp.Chaoslab.horizon in
        fun () -> ignore (Inv.check ~scenario ~actions ~horizon events)))

(* the multipath receiver's per-message dedup decision, steady state:
   a sliding window absorbing an in-order stream with every fourth
   sequence a duplicate (roughly what k=2 dissemination delivers) *)
let bench_route_dedup =
  Test.make ~name:"routing/dedup-admit"
    (Staged.stage
       (let d = Iov_routing.Dedup.create () in
        let seq = ref 0 in
        fun () ->
          incr seq;
          ignore (Iov_routing.Dedup.admit d !seq);
          if !seq land 3 = 0 then ignore (Iov_routing.Dedup.admit d !seq)))

(* the gossiped neighbor-table graph of routelab's 16-node overlay *)
let route_graph =
  let n = 16 in
  List.init n (fun i ->
      ( NI.synthetic (i + 1),
        List.map
          (fun d -> NI.synthetic (((i + d) mod n) + 1))
          [ 1; 2; n - 1; n - 2 ] ))

(* the source-side path computation a session (re)establishment pays:
   two edge-disjoint paths across the ring-plus-chords overlay *)
let bench_route_kpaths =
  Test.make ~name:"routing/k-disjoint-16"
    (Staged.stage (fun () ->
         ignore
           (Iov_routing.Path.k_disjoint route_graph ~k:2
              ~src:(NI.synthetic 1) ~dst:(NI.synthetic 9) ())))

(* one peer-sampling shuffle round against a full 16-descriptor view:
   age, assemble the outgoing sample, merge the partner's 8 descriptors
   back with the swap-rule eviction *)
let bench_gossip_view_merge =
  Test.make ~name:"gossip/view-merge"
    (Staged.stage
       (let rng = Random.State.make [| 42 |] in
        let vw = Gvw.create ~capacity:16 ~self:(NI.synthetic 1) () in
        List.iter
          (fun i -> Gvw.add vw ~rng (NI.synthetic i))
          (List.init 32 (fun i -> i + 2));
        let received = List.init 8 (fun i -> NI.synthetic (40 + i)) in
        let partner = NI.synthetic 40 in
        fun () ->
          Gvw.age vw;
          let out = Gvw.shuffle_out vw ~rng ~size:8 ~exclude:partner in
          Gvw.merge vw ~rng ~sent:out received))

(* the SWIM bookkeeping of one failure-detection round at n=64: the
   expired-suspect scan, a suspicion verdict and its piggyback
   assembly, the confirmation, and the refutation that resurrects the
   victim (at a higher incarnation) for the next pass *)
let bench_gossip_probe_round =
  Test.make ~name:"gossip/probe-round"
    (Staged.stage
       (let sw = Gsw.create ~self:(NI.synthetic 1) () in
        List.iter
          (fun i ->
            ignore
              (Gsw.apply sw ~now:0.
                 { Gsw.u_node = NI.synthetic i; u_status = Gsw.Alive;
                   u_inc = 0 }))
          (List.init 64 (fun i -> i + 2));
        ignore (Gsw.piggyback sw ~limit:max_int);
        let now = ref 0. in
        let i = ref 0 in
        fun () ->
          now := !now +. 0.5;
          incr i;
          let victim = NI.synthetic (2 + (!i mod 64)) in
          ignore (Gsw.expired_suspects sw ~now:!now ~timeout:2.0);
          ignore (Gsw.suspect_local sw ~now:!now victim);
          ignore (Gsw.piggyback sw ~limit:8);
          ignore (Gsw.confirm_local sw ~now:(!now +. 2.1) victim);
          ignore (Gsw.piggyback sw ~limit:8);
          match Gsw.status_of sw victim with
          | Some (_, inc) ->
            ignore
              (Gsw.apply sw ~now:!now
                 { Gsw.u_node = victim; u_status = Gsw.Alive;
                   u_inc = inc + 1 })
          | None -> assert false))

(* the per-message overload-guard decision on the switch's hot path:
   one breaker check plus one token-bucket/shed-floor admission
   verdict, with occasional failure and success evidence mixed in so
   both state machines keep exercising their transitions *)
let bench_guard_breaker_admit =
  Test.make ~name:"guard/breaker-admit"
    (Staged.stage
       (let rng = Random.State.make [| 11; 0x6a4d |] in
        let br = Iov_guard.Breaker.create ~rng () in
        let adm =
          Iov_guard.Admission.create
            ~classes:
              [ (1, Iov_guard.Admission.cls ~rate:65536. ~priority:1 ()) ]
            ~default:(Iov_guard.Admission.cls ~priority:2 ())
            ~now:0. ()
        in
        let now = ref 0. in
        let i = ref 0 in
        fun () ->
          incr i;
          now := !now +. 0.001;
          ignore (Iov_guard.Breaker.allow br ~now:!now);
          if !i land 1023 = 0 then
            ignore (Iov_guard.Breaker.on_failure br ~now:!now)
          else if !i land 255 = 0 then
            ignore (Iov_guard.Breaker.on_success br ~now:!now);
          ignore
            (Iov_guard.Admission.admit adm ~now:!now ~app:1 ~size:512
               ~backlog:(!i land 63))))

(* the batched sender's staging cycle: 64 small frames encoded in place
   into a pooled 256 KB buffer and flushed through a sink that consumes
   the whole run at once — the per-batch cost the syscall saving has to
   beat *)
let batch_flush_msgs =
  List.init 64 (fun i ->
      Msg.data ~origin:(NI.synthetic (1 + (i mod 7))) ~app:1 ~seq:i
        (Bytes.make 256 'f'))

let bench_batch_flush =
  Test.make ~name:"onet/batch-flush"
    (Staged.stage
       (let pool = Iov_onet.Batcher.pool () in
        fun () ->
          let batch = Iov_onet.Batcher.acquire pool in
          List.iter
            (fun m -> ignore (Iov_onet.Batcher.add batch m))
            batch_flush_msgs;
          ignore
            (Iov_onet.Batcher.flush batch ~write:(fun _ _ len -> len));
          Iov_onet.Batcher.release batch))

let micro_tests =
  [
    bench_codec_encode;
    bench_codec_decode;
    bench_gf_mul;
    bench_gf_mul_table;
    bench_gf_axpy;
    bench_gf_axpy1;
    bench_linear_decode;
    bench_incremental_decode;
    bench_cqueue;
    bench_switch_hop;
    bench_fanout_8way;
    bench_fanout_8way_telem;
    bench_chaos_compile;
    bench_chaos_check;
    bench_route_dedup;
    bench_route_kpaths;
    bench_gossip_view_merge;
    bench_gossip_probe_round;
    bench_guard_breaker_admit;
    bench_batch_flush;
  ]

let json_file = "BENCH_micro.json"

(* Machine-readable perf trajectory: one ns/run estimate per benchmark,
   written only under [-- micro --json] so ad-hoc runs do not clobber
   the committed numbers. *)
let write_json rows =
  let oc = open_out json_file in
  let fmt = Printf.fprintf in
  fmt oc "{\n  \"unit\": \"ns/run\",\n  \"benchmarks\": {\n";
  let n = List.length rows in
  List.iteri
    (fun i (name, est) ->
      let sep = if i = n - 1 then "" else "," in
      match est with
      | Some e -> fmt oc "    %S: %.1f%s\n" name e sep
      | None -> fmt oc "    %S: null%s\n" name sep)
    rows;
  fmt oc "  }\n}\n";
  close_out oc;
  Printf.printf "wrote %s (%d benchmarks)\n" json_file n

let run_micro ?(smoke = false) ~json () =
  print_endline "== micro-benchmarks (Bechamel) ==";
  let instances = Instance.[ monotonic_clock ] in
  (* --smoke: a few iterations per benchmark, enough for CI to prove
     every benchmark still runs without spending minutes measuring *)
  let cfg =
    if smoke then Benchmark.cfg ~limit:50 ~quota:(Time.second 0.05) ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ()
  in
  let grouped = Test.make_grouped ~name:"iov" micro_tests in
  let raw = Benchmark.all cfg instances grouped in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  let rows =
    List.map
      (fun (name, result) ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> (name, Some est)
        | Some _ | None -> (name, None))
      (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)
  in
  List.iter
    (fun (name, est) ->
      match est with
      | Some est -> Printf.printf "  %-36s %12.1f ns/run\n" name est
      | None -> Printf.printf "  %-36s (no estimate)\n" name)
    rows;
  if json then write_json rows;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* The paper harness                                                   *)

let run_paper ~quick =
  print_endline "== paper experiments: every table and figure ==";
  print_newline ();
  let fig5_sizes =
    if quick then [ 2; 3; 4; 8; 16 ] else Iov_exp.Fig5.default_sizes
  in
  ignore (Iov_exp.Fig5.run ~sizes:fig5_sizes ());
  ignore (Iov_exp.Fig6.run ());
  ignore (Iov_exp.Fig7.run ());
  ignore (Iov_exp.Fig8.run ());
  ignore (Iov_exp.Fig9.run ());
  ignore (Iov_exp.Fig11.run ~n:(if quick then 30 else 81) ());
  ignore (Iov_exp.Fig12.run ());
  ignore (Iov_exp.Fig14.run ());
  ignore (Iov_exp.Fig16.run ());
  let fig17_sizes =
    if quick then [ 5; 20; 40 ] else Iov_exp.Fig17.default_sizes
  in
  ignore (Iov_exp.Fig17.run ~sizes:fig17_sizes ());
  ignore (Iov_exp.Fig18.run ());
  let fig19_sizes =
    if quick then [ 5; 15; 30 ] else Iov_exp.Fig19.default_sizes
  in
  ignore (Iov_exp.Fig19.run ~sizes:fig19_sizes ());
  (* beyond the paper's figures: the Section-3.1 robustness study and
     the design-choice ablations *)
  ignore (Iov_exp.Robustness.run ~n:(if quick then 12 else 20) ());
  Iov_exp.Ablations.run_all ()

let () =
  let args = Array.to_list Sys.argv in
  let json = List.mem "--json" args in
  let smoke = List.mem "--smoke" args in
  let mode =
    match
      List.filter (fun a -> a <> "--json" && a <> "--smoke") (List.tl args)
    with
    | m :: _ -> m
    | [] -> "all"
  in
  match mode with
  | "micro" -> run_micro ~smoke ~json ()
  | "paper" -> run_paper ~quick:false
  | "quick" ->
    run_micro ~smoke ~json ();
    run_paper ~quick:true
  | "all" ->
    run_micro ~smoke ~json ();
    run_paper ~quick:false
  | m ->
    Printf.eprintf "unknown mode %S (expected micro | paper | quick | all)\n" m;
    exit 2
