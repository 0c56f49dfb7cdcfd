(* Tests for the case-study algorithms: flood routing, sources, the
   coding suite, and the back-to-back pump. *)

module Network = Iov_core.Network
module Bwspec = Iov_core.Bwspec
module Alg = Iov_core.Algorithm
module Ialg = Iov_core.Ialgorithm
module NI = Iov_msg.Node_id
module Msg = Iov_msg.Message
module Mt = Iov_msg.Mtype
module Flood = Iov_algos.Flood
module Source = Iov_algos.Source
module Coding = Iov_algos.Coding
module Pump = Iov_algos.Pump

let id i = NI.synthetic i
let app = 1
let kbps x = x *. 1024.

let qtest ?(count = 200) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

(* ------------------------------------------------------------------ *)
(* Flood (pure routing logic) *)

let test_flood_routes () =
  let f = Flood.create () in
  Flood.set_route f ~app ~upstreams:[ id 1 ] ~downstreams:[ id 2; id 3 ] ();
  Alcotest.(check int) "two downstreams" 2 (List.length (Flood.downstreams f ~app));
  Alcotest.(check int) "one upstream" 1 (List.length (Flood.upstreams f ~app));
  Alcotest.(check (list int)) "apps" [ app ] (Flood.apps f);
  Flood.clear_route f ~app;
  Alcotest.(check (list int)) "cleared" [] (Flood.apps f)

let test_flood_multi_app () =
  let f = Flood.create () in
  Flood.set_route f ~app:1 ~downstreams:[ id 2 ] ();
  Flood.set_route f ~app:2 ~downstreams:[ id 3 ] ();
  Alcotest.(check int) "two apps" 2 (List.length (Flood.apps f));
  Alcotest.(check bool) "separate routes" true
    (Flood.downstreams f ~app:1 <> Flood.downstreams f ~app:2)

(* ------------------------------------------------------------------ *)
(* Source pacing *)

let sink net i =
  ignore (Network.add_node net ~id:(id i) Alg.null)

let test_source_copy_same_stream () =
  (* both destinations receive the same byte count when symmetric *)
  let net = Network.create () in
  let s =
    Source.create ~payload_size:1000 ~app ~dests:[ id 2; id 3 ] ()
  in
  ignore
    (Network.add_node net
       ~bw:(Bwspec.total_only (kbps 100.))
       ~id:(id 1) (Source.algorithm s));
  sink net 2;
  sink net 3;
  Network.run net ~until:10.;
  let b2 = Network.app_bytes net (id 2) ~app in
  let b3 = Network.app_bytes net (id 3) ~app in
  Alcotest.(check bool) "both streams flowed" true (b2 > 0 && b3 > 0);
  Alcotest.(check bool) "roughly equal" true
    (Float.abs (float_of_int (b2 - b3)) /. float_of_int b2 < 0.1)

let test_source_rate_paced () =
  let net = Network.create () in
  let s =
    Source.create ~pacing:(`Rate (kbps 20.)) ~payload_size:1024 ~app
      ~dests:[ id 2 ] ()
  in
  ignore (Network.add_node net ~id:(id 1) (Source.algorithm s));
  sink net 2;
  Network.run net ~until:21.;
  let b = Network.app_bytes net (id 2) ~app in
  (* ~20 KBps for ~20 s *)
  let expect = 20. *. kbps 20. in
  Alcotest.(check bool) "CBR volume" true
    (Float.abs (float_of_int b -. expect) /. expect < 0.15)

let test_source_deploy_control () =
  let net = Network.create () in
  let s = Source.create ~auto:false ~app ~dests:[ id 2 ] () in
  ignore (Network.add_node net ~id:(id 1) (Source.algorithm s));
  sink net 2;
  Network.run net ~until:2.;
  Alcotest.(check int) "idle until deployed" 0 (Source.sent s);
  Network.inject_control net
    (Msg.control ~mtype:Mt.S_deploy ~origin:(id 99) ~app Bytes.empty)
    (id 1);
  Network.run net ~until:4.;
  Alcotest.(check bool) "deployed" true (Source.sent s > 0);
  let sent_at_stop = ref 0 in
  Network.inject_control net
    (Msg.control ~mtype:Mt.S_terminate ~origin:(id 99) ~app Bytes.empty)
    (id 1);
  Network.run net ~until:4.5;
  sent_at_stop := Source.sent s;
  Network.run net ~until:8.;
  Alcotest.(check int) "stopped" !sent_at_stop (Source.sent s)

let test_source_split_stripes () =
  let net = Network.create () in
  let log2 = ref [] and log3 = ref [] in
  let recorder log =
    Ialg.make ~name:"r" (fun _ m ->
        if m.Msg.mtype = Mt.Data then log := m.Msg.seq :: !log;
        Some Alg.Consume)
  in
  let s = Source.create ~mode:`Split ~payload_size:100 ~app ~dests:[ id 2; id 3 ] () in
  ignore (Network.add_node net ~id:(id 1) (Source.algorithm s));
  ignore (Network.add_node net ~id:(id 2) (recorder log2));
  ignore (Network.add_node net ~id:(id 3) (recorder log3));
  Network.run net ~until:1.;
  Alcotest.(check bool) "dest 0 gets even seqs" true
    (List.for_all (fun q -> q mod 2 = 0) !log2);
  Alcotest.(check bool) "dest 1 gets odd seqs" true
    (List.for_all (fun q -> q mod 2 = 1) !log3);
  Alcotest.(check bool) "both nonempty" true (!log2 <> [] && !log3 <> [])

(* An unwrapped back-to-back source into an idle link: the simulator's
   send starts the transmission at once and calls [on_ready] from inside
   it, so the source is re-entered mid-[emit]. Every sequence number must
   still arrive exactly once, in order. *)
let test_source_seqs_exactly_once () =
  let net = Network.create () in
  let got = ref [] in
  let recorder =
    Ialg.make ~name:"r" (fun _ m ->
        if m.Msg.mtype = Mt.Data then got := m.Msg.seq :: !got;
        Some Alg.Consume)
  in
  let s = Source.create ~payload_size:1024 ~app ~dests:[ id 2 ] () in
  ignore (Network.add_node net ~id:(id 1) (Source.algorithm s));
  ignore (Network.add_node net ~id:(id 2) recorder);
  Network.run net ~until:0.5;
  Source.stop s;
  Network.run net ~until:2.;
  let n = Source.sent s in
  Alcotest.(check bool) "the stream flowed" true (n > 10);
  Alcotest.(check (list int)) "seqs 0..n-1, each once" (List.init n Fun.id)
    (List.rev !got)

(* ------------------------------------------------------------------ *)
(* Coding frames *)

let payload_gen =
  QCheck.map Bytes.of_string QCheck.(string_of_size (QCheck.Gen.int_bound 64))

let frame_props =
  [
    qtest "native frame roundtrip"
      QCheck.(pair (int_range 1 8) payload_gen)
      (fun (k, data) ->
        let index = k - 1 in
        match Coding.Frame.parse (Coding.Frame.native ~k ~index data) with
        | Some (`Native (k', i', d)) -> k' = k && i' = index && Bytes.equal d data
        | _ -> false);
    qtest "coded frame roundtrip"
      QCheck.(pair (array_of_size (QCheck.Gen.int_range 1 8) (int_range 0 255)) payload_gen)
      (fun (coeffs, data) ->
        match Coding.Frame.parse (Coding.Frame.coded ~coeffs data) with
        | Some (`Coded (c', d)) -> c' = coeffs && Bytes.equal d data
        | _ -> false);
    qtest "unframed payloads rejected" payload_gen (fun data ->
        match Coding.Frame.parse data with
        | Some _ ->
          (* only valid framings parse; a random payload may
             accidentally parse iff it starts with a valid tag *)
          Bytes.length data >= 2
          && (Bytes.get data 0 = '\000' || Bytes.get data 0 = '\001')
        | None -> true);
  ]

let test_frame_validation () =
  Alcotest.check_raises "bad index" (Invalid_argument "Frame.native: index")
    (fun () -> ignore (Coding.Frame.native ~k:2 ~index:2 Bytes.empty));
  Alcotest.(check bool) "data accessor" true
    (match Coding.Frame.data (Coding.Frame.native ~k:1 ~index:0 (Bytes.of_string "d")) with
    | Some d -> Bytes.to_string d = "d"
    | None -> false)

(* ------------------------------------------------------------------ *)
(* Coder / Decoder end-to-end in a small network *)

let test_coding_end_to_end () =
  (* butterfly: src splits to two relays; coder combines; decoder gets
     native stream 0 plus the coded stream and must decode stream 1 *)
  let net = Network.create ~buffer_capacity:200 () in
  let src = Coding.split_source ~payload_size:512 ~app ~dests:[ id 2; id 3 ] () in
  ignore (Network.add_node net ~id:(id 1) (Source.algorithm src));
  let r2 = Coding.Router.create ~app () in
  Coding.Router.route_native r2 ~index:0 [ id 4; id 5 ];
  ignore (Network.add_node net ~id:(id 2) (Coding.Router.algorithm r2));
  let r3 = Coding.Router.create ~app () in
  Coding.Router.route_native r3 ~index:1 [ id 4 ];
  ignore (Network.add_node net ~id:(id 3) (Coding.Router.algorithm r3));
  let coder = Coding.Coder.create ~k:2 ~app ~dests:[ id 5 ] () in
  ignore (Network.add_node net ~id:(id 4) (Coding.Coder.algorithm coder));
  let dec = Coding.Decoder_node.create ~k:2 ~app () in
  ignore (Network.add_node net ~id:(id 5) (Coding.Decoder_node.algorithm dec));
  Network.run net ~until:10.;
  Alcotest.(check bool) "coder emitted" true (Coding.Coder.emitted coder > 10);
  Alcotest.(check bool) "decoder completed generations" true
    (Coding.Decoder_node.decoded_generations dec > 10);
  Alcotest.(check bool) "decoded both streams' bytes" true
    (Coding.Decoder_node.decoded_bytes dec
    >= 2 * 512 * Coding.Decoder_node.decoded_generations dec)

let test_coder_held_bounded () =
  (* feeding only one of two streams: the coder holds but never emits *)
  let net = Network.create ~buffer_capacity:50 () in
  let make_payload ~dest_index:_ ~seq =
    Coding.Frame.native ~k:2 ~index:0 (Bytes.make 64 (Char.chr (seq land 0xff)))
  in
  let src = Source.create ~payload_size:64 ~make_payload ~app ~dests:[ id 2 ] () in
  ignore (Network.add_node net ~id:(id 1) (Source.algorithm src));
  let coder = Coding.Coder.create ~k:2 ~app ~dests:[ id 3 ] () in
  ignore (Network.add_node net ~id:(id 2) (Coding.Coder.algorithm coder));
  ignore (Network.add_node net ~id:(id 3) Alg.null);
  Network.run net ~until:5.;
  Alcotest.(check int) "nothing emitted" 0 (Coding.Coder.emitted coder);
  Alcotest.(check bool) "held packets accumulate" true (Coding.Coder.held coder > 0)

let test_coder_validation () =
  Alcotest.check_raises "zero coeff" (Invalid_argument "Coder.create: coeffs")
    (fun () ->
      ignore (Coding.Coder.create ~coeffs:[| 1; 0 |] ~k:2 ~app ~dests:[] ()))

(* ------------------------------------------------------------------ *)
(* Merge *)

module Merge = Iov_algos.Merge

let merge_props =
  [
    qtest "combine/split roundtrip"
      QCheck.(small_list (map Bytes.of_string (string_of_size (QCheck.Gen.int_bound 40))))
      (fun parts ->
        match Merge.split (Merge.combine parts) with
        | Some out ->
          List.length out = List.length parts
          && List.for_all2 Bytes.equal out parts
        | None -> false);
  ]

let test_merge_end_to_end () =
  (* one source striped over two relays that both feed the merge node
     (stream index = seq mod k, which is exactly how the split source
     numbers its stripes) *)
  let net = Network.create ~buffer_capacity:100 () in
  let striped =
    Coding.split_source ~payload_size:64 ~app ~dests:[ id 4; id 5 ] ()
  in
  ignore (Network.add_node net ~id:(id 1) (Source.algorithm striped));
  let relay up i =
    let f = Flood.create () in
    Flood.set_route f ~app ~upstreams:[ id up ] ~downstreams:[ id 3 ] ();
    ignore (Network.add_node net ~id:(id i) (Flood.algorithm f))
  in
  relay 1 4;
  relay 1 5;
  let m = Merge.create ~k:2 ~app ~dests:[ id 6 ] () in
  ignore (Network.add_node net ~id:(id 3) (Merge.algorithm m));
  let received = ref [] in
  let sink =
    Ialg.make ~name:"sink" (fun _ msg ->
        if msg.Msg.mtype = Mt.Data then received := msg :: !received;
        Some Alg.Consume)
  in
  ignore (Network.add_node net ~id:(id 6) sink);
  Network.run net ~until:10.;
  Alcotest.(check bool) "merged messages emitted" true (Merge.emitted m > 10);
  Alcotest.(check bool) "sink received merged stream" true
    (List.length !received > 10);
  (* every received payload splits into exactly two parts *)
  List.iter
    (fun (msg : Msg.t) ->
      match Merge.split msg.payload with
      | Some [ _; _ ] -> ()
      | Some l -> Alcotest.failf "expected 2 parts, got %d" (List.length l)
      | None -> Alcotest.fail "unsplittable merge payload")
    !received

(* ------------------------------------------------------------------ *)
(* Pump *)

let test_pump_delivers_to_all () =
  let net = Network.create () in
  let p = Pump.create ~app ~payload_size:256 () in
  let alg =
    Ialg.make ~name:"pump-driver"
      ~on_start:(fun ctx ->
        Pump.add_dest p ctx (id 2);
        Pump.add_dest p ctx (id 3);
        Pump.start p ctx)
      ~on_ready:(fun ctx peer -> Pump.on_ready p ctx peer)
      (fun _ _ -> Some Alg.Consume)
  in
  ignore (Network.add_node net ~id:(id 1) alg);
  sink net 2;
  sink net 3;
  Network.run net ~until:3.;
  Alcotest.(check bool) "running" true (Pump.running p);
  Alcotest.(check int) "two dests" 2 (List.length (Pump.dests p));
  Alcotest.(check bool) "delivered to both" true
    (Network.app_bytes net (id 2) ~app > 0
    && Network.app_bytes net (id 3) ~app > 0);
  Pump.stop p;
  let sent = Pump.sent p in
  Network.run net ~until:6.;
  Alcotest.(check int) "stopped" sent (Pump.sent p)

let test_pump_remove_dest () =
  let p = Pump.create ~app () in
  let net = Network.create () in
  let alg =
    Ialg.make ~name:"d"
      ~on_start:(fun ctx -> Pump.add_dest p ctx (id 2))
      (fun _ _ -> Some Alg.Consume)
  in
  ignore (Network.add_node net ~id:(id 1) alg);
  sink net 2;
  Network.run net ~until:0.5;
  Pump.remove_dest p (id 2);
  Alcotest.(check (list bool)) "empty dests" []
    (List.map (fun _ -> true) (Pump.dests p))

(* ------------------------------------------------------------------ *)
(* Rational (incentive-driven) relaying *)

module Rational = Iov_algos.Rational

(* a joiner that sends one sQuery to the relay and records the answer *)
let joiner net i ~relay ~app =
  let state = ref `Waiting in
  let alg =
    Ialg.make ~name:"joiner"
      ~on_start:(fun ctx ->
        ctx.Alg.send
          (Msg.control ~mtype:Mt.S_query ~origin:ctx.Alg.self ~app Bytes.empty)
          relay)
      (fun _ m ->
        (match m.Msg.mtype with
        | Mt.S_query_ack -> state := `Accepted
        | Mt.Custom k when k = Rational.refusal_kind -> state := `Rejected
        | _ -> ());
        Some Alg.Consume)
  in
  ignore (Network.add_node net ~id:(id i) alg);
  state

let test_rational_admission_cap () =
  let net = Network.create () in
  let r =
    Rational.create
      ~policy:
        { Rational.relay_budget = kbps 1000.; altruism = 1.0; max_children = 2 }
      ~app ()
  in
  ignore (Network.add_node net ~id:(id 1) (Rational.algorithm r));
  let j2 = joiner net 2 ~relay:(id 1) ~app in
  let j3 = joiner net 3 ~relay:(id 1) ~app in
  Network.run net ~until:1.;
  (* the first two got in; a third is refused by max_children *)
  Alcotest.(check bool) "j2 accepted" true (!j2 = `Accepted);
  Alcotest.(check bool) "j3 accepted" true (!j3 = `Accepted);
  let j4 = joiner net 4 ~relay:(id 1) ~app in
  Network.run net ~until:2.;
  Alcotest.(check bool) "j4 refused" true (!j4 = `Rejected);
  Alcotest.(check int) "stats" 2 (Rational.accepted r);
  Alcotest.(check int) "rejections" 1 (Rational.rejected r)

let test_rational_budget_admission () =
  (* no budget, no altruism: the relay admits exactly one child (it
     forwards what it receives, nothing more) *)
  let net = Network.create () in
  let src = Source.create ~pacing:(`Rate (kbps 30.)) ~payload_size:1024 ~app ~dests:[ id 2 ] () in
  ignore (Network.add_node net ~id:(id 1) (Source.algorithm src));
  let r =
    Rational.create
      ~policy:{ Rational.relay_budget = 1.; altruism = 0.; max_children = 10 }
      ~app ()
  in
  ignore (Network.add_node net ~id:(id 2) (Rational.algorithm r));
  Network.run net ~until:5. (* traffic flowing so rates are measurable *);
  let j3 = joiner net 3 ~relay:(id 2) ~app in
  Network.run net ~until:8.;
  Alcotest.(check bool) "first child admitted" true (!j3 = `Accepted);
  let j4 = joiner net 4 ~relay:(id 2) ~app in
  Network.run net ~until:12.;
  Alcotest.(check bool) "second child refused (no incentive)" true
    (!j4 = `Rejected);
  (* the admitted child is actually served *)
  Network.run net ~until:20.;
  Alcotest.(check bool) "child receives data" true
    (Network.app_bytes net (id 3) ~app > 0)

let test_rational_sheds_when_overloaded () =
  let net = Network.create () in
  (* the source starts slow, then the observer-style bandwidth change
     triples it; the relay's contribution overruns and it sheds *)
  let src = Source.create ~app ~dests:[ id 2 ] () in
  ignore
    (Network.add_node net
       ~bw:(Bwspec.make ~up:(kbps 10.) ())
       ~id:(id 1) (Source.algorithm src));
  let r =
    Rational.create
      ~policy:
        { Rational.relay_budget = kbps 20.; altruism = 0.2; max_children = 4 }
      ~app ()
  in
  ignore (Network.add_node net ~id:(id 2) (Rational.algorithm r));
  Network.run net ~until:3.;
  let j3 = joiner net 3 ~relay:(id 2) ~app in
  let j4 = joiner net 4 ~relay:(id 2) ~app in
  Network.run net ~until:8.;
  Alcotest.(check bool) "both admitted while cheap" true
    (!j3 = `Accepted && !j4 = `Accepted);
  Network.set_node_bandwidth net (id 1) (Bwspec.make ~up:(kbps 60.) ());
  Network.run net ~until:25.;
  Alcotest.(check bool) "a child was shed" true (Rational.shed r >= 1);
  Alcotest.(check bool) "but not all" true (List.length (Rational.children r) >= 1)

(* ------------------------------------------------------------------ *)
(* Ialgorithm utilities *)

let test_disseminate_probability () =
  let net = Network.create ~seed:5 () in
  let ctxr = ref None in
  ignore
    (Network.add_node net ~id:(id 1)
       (Ialg.make ~name:"g" ~on_start:(fun c -> ctxr := Some c) (fun _ _ ->
            Some Alg.Consume)));
  for i = 2 to 41 do
    sink net i
  done;
  Network.run net ~until:0.1;
  let ctx = Option.get !ctxr in
  let hosts = List.init 40 (fun i -> id (i + 2)) in
  let m = Msg.control ~mtype:(Mt.Custom 5) ~origin:(id 1) Bytes.empty in
  let all = Ialg.disseminate ctx m hosts in
  Alcotest.(check int) "p=1 sends to all" 40 all;
  let some = Ialg.disseminate ctx ~p:0.5 m hosts in
  Alcotest.(check bool) "p=0.5 sends a strict subset on average" true
    (some > 5 && some < 36);
  let none = Ialg.disseminate ctx ~p:0. m hosts in
  Alcotest.(check int) "p=0 sends none" 0 none

let test_default_handler_records_hosts () =
  let net = Network.create () in
  let ctxr = ref None in
  ignore
    (Network.add_node net ~id:(id 1)
       (Ialg.make ~name:"d" ~on_start:(fun c -> ctxr := Some c) (fun _ _ -> None)));
  Network.run net ~until:0.1;
  let ctx = Option.get !ctxr in
  let w = Iov_msg.Wire.W.create () in
  Iov_msg.Wire.W.nodes w [ id 7; id 8 ];
  let m =
    Msg.control ~mtype:Mt.Boot_reply ~origin:(id 99)
      (Iov_msg.Wire.W.contents w)
  in
  ignore (Ialg.default ctx m);
  let kh = ctx.Alg.known_hosts () in
  Alcotest.(check int) "hosts recorded" 2 (List.length kh)

let () =
  Alcotest.run "algorithms"
    [
      ( "flood",
        [
          Alcotest.test_case "route table" `Quick test_flood_routes;
          Alcotest.test_case "multi-app" `Quick test_flood_multi_app;
        ] );
      ( "source",
        [
          Alcotest.test_case "copy mode" `Quick test_source_copy_same_stream;
          Alcotest.test_case "CBR pacing" `Quick test_source_rate_paced;
          Alcotest.test_case "deploy/terminate" `Quick
            test_source_deploy_control;
          Alcotest.test_case "split striping" `Quick test_source_split_stripes;
          Alcotest.test_case "seqs exactly once into an idle link" `Quick
            test_source_seqs_exactly_once;
        ] );
      ( "coding",
        frame_props
        @ [
            Alcotest.test_case "frame validation" `Quick test_frame_validation;
            Alcotest.test_case "end-to-end decode" `Quick
              test_coding_end_to_end;
            Alcotest.test_case "held without peers" `Quick
              test_coder_held_bounded;
            Alcotest.test_case "coder validation" `Quick test_coder_validation;
          ] );
      ( "pump",
        [
          Alcotest.test_case "delivers to all dests" `Quick
            test_pump_delivers_to_all;
          Alcotest.test_case "remove dest" `Quick test_pump_remove_dest;
        ] );
      ( "merge",
        merge_props
        @ [ Alcotest.test_case "end-to-end merging" `Quick test_merge_end_to_end ]
      );
      ( "rational",
        [
          Alcotest.test_case "max-children admission" `Quick
            test_rational_admission_cap;
          Alcotest.test_case "budget admission" `Quick
            test_rational_budget_admission;
          Alcotest.test_case "sheds when overloaded" `Quick
            test_rational_sheds_when_overloaded;
        ] );
      ( "ialgorithm",
        [
          Alcotest.test_case "disseminate probability" `Quick
            test_disseminate_probability;
          Alcotest.test_case "default records KnownHosts" `Quick
            test_default_handler_records_hosts;
        ] );
    ]
