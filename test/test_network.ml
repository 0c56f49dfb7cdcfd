(* Tests for the simulated overlay runtime: delivery, bandwidth
   emulation, back pressure, failures, control path, QoS metering. *)

module Network = Iov_core.Network
module Bwspec = Iov_core.Bwspec
module Alg = Iov_core.Algorithm
module Ialg = Iov_core.Ialgorithm
module NI = Iov_msg.Node_id
module Msg = Iov_msg.Message
module Mt = Iov_msg.Mtype
module Source = Iov_algos.Source
module Flood = Iov_algos.Flood

let kbps x = x *. 1024.
let id i = NI.synthetic i
let app = 1

(* a sink algorithm recording every message it processes *)
let recording () =
  let log = ref [] in
  let alg =
    Ialg.make ~name:"recorder" (fun _ m ->
        log := m :: !log;
        Some Alg.Consume)
  in
  (alg, log)

(* a flood node wired externally *)
let flood_node net ?bw ?buffer_capacity i ~ups ~downs =
  let f = Flood.create () in
  Flood.set_route f ~app ~upstreams:(List.map id ups)
    ~downstreams:(List.map id downs) ();
  ignore
    (Network.add_node net ?bw ?buffer_capacity ~id:(id i)
       (Flood.algorithm f));
  f

let source_node net ?bw ?payload_size i ~dests =
  let s = Source.create ?payload_size ~app ~dests:(List.map id dests) () in
  ignore (Network.add_node net ?bw ~id:(id i) (Source.algorithm s));
  s

let check_close ~tol name expect got =
  if Float.abs (got -. expect) > tol *. expect then
    Alcotest.failf "%s: expected ~%.1f, got %.1f" name expect got

(* ------------------------------------------------------------------ *)
(* Delivery basics *)

let test_end_to_end_delivery () =
  let net = Network.create () in
  let alg, log = recording () in
  ignore (Network.add_node net ~id:(id 2) alg);
  let ctx_holder = ref None in
  let sender =
    Ialg.make ~name:"sender"
      ~on_start:(fun ctx -> ctx_holder := Some ctx)
      (fun _ _ -> Some Alg.Consume)
  in
  ignore (Network.add_node net ~id:(id 1) sender);
  Network.run net ~until:0.1;
  let ctx = Option.get !ctx_holder in
  ctx.Alg.send (Msg.data ~origin:(id 1) ~app ~seq:0 (Bytes.of_string "hi")) (id 2);
  Network.run net ~until:1.;
  Alcotest.(check int) "one message" 1 (List.length !log);
  let m = List.hd !log in
  Alcotest.(check string) "payload intact" "hi" (Msg.string_payload m);
  Alcotest.(check bool) "origin" true (NI.equal m.Msg.origin (id 1));
  Alcotest.(check bool) "link exists" true
    (Network.link_exists net ~src:(id 1) ~dst:(id 2))

let test_chain_forwarding () =
  let net = Network.create () in
  let src = source_node net 1 ~dests:[ 2 ] in
  let _ = flood_node net 2 ~ups:[ 1 ] ~downs:[ 3 ] in
  let _ = flood_node net 3 ~ups:[ 2 ] ~downs:[] in
  Network.run net ~until:3.;
  Alcotest.(check bool) "source generated" true (Source.sent src > 0);
  Alcotest.(check bool) "sink received" true
    (Network.app_bytes net (id 3) ~app > 0)

let test_latency_delays_delivery () =
  let net = Network.create ~default_latency:0.5 () in
  let alg, log = recording () in
  ignore (Network.add_node net ~id:(id 2) alg);
  let ctxr = ref None in
  ignore
    (Network.add_node net ~id:(id 1)
       (Ialg.make ~name:"s" ~on_start:(fun c -> ctxr := Some c) (fun _ _ ->
            Some Alg.Consume)));
  Network.run net ~until:0.01;
  (Option.get !ctxr).Alg.send
    (Msg.data ~origin:(id 1) ~app ~seq:0 (Bytes.create 8))
    (id 2);
  Network.run net ~until:0.4;
  Alcotest.(check int) "not yet delivered" 0 (List.length !log);
  Network.run net ~until:1.0;
  Alcotest.(check int) "delivered after latency" 1 (List.length !log)

(* ------------------------------------------------------------------ *)
(* Bandwidth emulation *)

let test_per_node_total_cap () =
  let net = Network.create () in
  let _ = source_node net ~bw:(Bwspec.total_only (kbps 400.)) 1 ~dests:[ 2 ] in
  let _ = flood_node net 2 ~ups:[ 1 ] ~downs:[] in
  Network.run net ~until:10.;
  check_close ~tol:0.05 "single link takes full cap" (kbps 400.)
    (Network.link_throughput net ~src:(id 1) ~dst:(id 2))

let test_total_cap_shared_across_links () =
  let net = Network.create () in
  let _ =
    source_node net ~bw:(Bwspec.total_only (kbps 400.)) 1 ~dests:[ 2; 3 ]
  in
  let _ = flood_node net 2 ~ups:[ 1 ] ~downs:[] in
  let _ = flood_node net 3 ~ups:[ 1 ] ~downs:[] in
  Network.run net ~until:10.;
  check_close ~tol:0.08 "fair half" (kbps 200.)
    (Network.link_throughput net ~src:(id 1) ~dst:(id 2));
  check_close ~tol:0.08 "fair half" (kbps 200.)
    (Network.link_throughput net ~src:(id 1) ~dst:(id 3))

let test_total_cap_counts_in_and_out () =
  (* a relay with total 100 KBps forwarding a stream: in + out share
     the budget, so each side converges to ~50 *)
  let net = Network.create ~buffer_capacity:5 () in
  let _ = source_node net 1 ~dests:[ 2 ] in
  let _ =
    flood_node net ~bw:(Bwspec.total_only (kbps 100.)) 2 ~ups:[ 1 ]
      ~downs:[ 3 ]
  in
  let _ = flood_node net 3 ~ups:[ 2 ] ~downs:[] in
  Network.run net ~until:20.;
  check_close ~tol:0.12 "in side" (kbps 50.)
    (Network.link_throughput net ~src:(id 1) ~dst:(id 2));
  check_close ~tol:0.12 "out side" (kbps 50.)
    (Network.link_throughput net ~src:(id 2) ~dst:(id 3))

let test_asymmetric_updown () =
  let net = Network.create () in
  let _ =
    source_node net
      ~bw:(Bwspec.asymmetric ~up:(kbps 30.) ~down:(kbps 300.))
      1 ~dests:[ 2 ]
  in
  let _ = flood_node net 2 ~ups:[ 1 ] ~downs:[] in
  Network.run net ~until:10.;
  check_close ~tol:0.08 "uplink caps sending" (kbps 30.)
    (Network.link_throughput net ~src:(id 1) ~dst:(id 2))

let test_downlink_cap () =
  let net = Network.create () in
  let _ = source_node net 1 ~dests:[ 2 ] in
  let _ =
    flood_node net ~bw:(Bwspec.make ~down:(kbps 40.) ()) 2 ~ups:[ 1 ] ~downs:[]
  in
  Network.run net ~until:10.;
  check_close ~tol:0.08 "receiver downlink caps" (kbps 40.)
    (Network.link_throughput net ~src:(id 1) ~dst:(id 2))

let test_per_link_cap_runtime () =
  let net = Network.create () in
  let _ = source_node net 1 ~dests:[ 2 ] in
  let _ = flood_node net 2 ~ups:[ 1 ] ~downs:[] in
  Network.run net ~until:5.;
  Network.set_link_bandwidth net ~src:(id 1) ~dst:(id 2) (kbps 25.);
  Network.run net ~until:20.;
  check_close ~tol:0.1 "link cap applies at runtime" (kbps 25.)
    (Network.link_throughput net ~src:(id 1) ~dst:(id 2))

let test_set_bandwidth_via_control () =
  (* the observer-protocol path: a Set_bandwidth control message *)
  let net = Network.create () in
  let _ = source_node net 1 ~dests:[ 2 ] in
  let _ = flood_node net 2 ~ups:[ 1 ] ~downs:[] in
  Network.run net ~until:3.;
  let w = Iov_msg.Wire.W.create () in
  Iov_msg.Wire.W.int32 w 1 (* uplink *);
  Iov_msg.Wire.W.float w (kbps 20.);
  let m =
    Msg.control ~mtype:Mt.Set_bandwidth ~origin:(id 99)
      (Iov_msg.Wire.W.contents w)
  in
  Network.inject_control net m (id 1);
  Network.run net ~until:15.;
  check_close ~tol:0.1 "uplink set by message" (kbps 20.)
    (Network.link_throughput net ~src:(id 1) ~dst:(id 2))

(* ------------------------------------------------------------------ *)
(* Back pressure *)

let test_back_pressure_small_buffers () =
  (* source -> relay -> slow sink: with 5-message buffers the source
     link throttles to the sink's rate *)
  let net = Network.create ~buffer_capacity:5 () in
  let _ = source_node net 1 ~dests:[ 2 ] in
  let _ = flood_node net 2 ~ups:[ 1 ] ~downs:[ 3 ] in
  let _ =
    flood_node net ~bw:(Bwspec.make ~down:(kbps 10.) ()) 3 ~ups:[ 2 ] ~downs:[]
  in
  Network.run net ~until:30.;
  check_close ~tol:0.15 "upstream throttled" (kbps 10.)
    (Network.link_throughput net ~src:(id 1) ~dst:(id 2))

let test_large_buffers_delay_throttling () =
  let net = Network.create ~buffer_capacity:10000 () in
  let _ = source_node net ~bw:(Bwspec.total_only (kbps 100.)) 1 ~dests:[ 2 ] in
  let _ = flood_node net 2 ~ups:[ 1 ] ~downs:[ 3 ] in
  let _ =
    flood_node net ~bw:(Bwspec.make ~down:(kbps 10.) ()) 3 ~ups:[ 2 ] ~downs:[]
  in
  Network.run net ~until:30.;
  (* the relay's big buffer shields the source within the horizon *)
  check_close ~tol:0.1 "source unaffected" (kbps 100.)
    (Network.link_throughput net ~src:(id 1) ~dst:(id 2));
  check_close ~tol:0.15 "sink limited" (kbps 10.)
    (Network.link_throughput net ~src:(id 2) ~dst:(id 3))

let test_copy_fanout_blocks_on_slowest () =
  (* a relay copying to one fast and one slow downstream: with small
     buffers both converge to the slow rate (remaining-senders retry) *)
  let net = Network.create ~buffer_capacity:5 () in
  let _ = source_node net ~payload_size:1024 1 ~dests:[ 2 ] in
  let _ = flood_node net 2 ~ups:[ 1 ] ~downs:[ 3; 4 ] in
  let _ =
    flood_node net ~bw:(Bwspec.make ~down:(kbps 12.) ()) 3 ~ups:[ 2 ] ~downs:[]
  in
  let _ = flood_node net 4 ~ups:[ 2 ] ~downs:[] in
  Network.run net ~until:30.;
  check_close ~tol:0.15 "slow branch" (kbps 12.)
    (Network.link_throughput net ~src:(id 2) ~dst:(id 3));
  check_close ~tol:0.15 "fast branch equalized" (kbps 12.)
    (Network.link_throughput net ~src:(id 2) ~dst:(id 4))

(* ------------------------------------------------------------------ *)
(* Failures *)

let test_terminate_notifies_peers () =
  let net = Network.create () in
  let _ = source_node net 1 ~dests:[ 2 ] in
  let relay = flood_node net 2 ~ups:[ 1 ] ~downs:[ 3 ] in
  let _ = flood_node net 3 ~ups:[ 2 ] ~downs:[] in
  Network.run net ~until:3.;
  Network.terminate net (id 1);
  Network.run net ~until:6.;
  Alcotest.(check bool) "node dead" false
    (Network.is_alive (Network.node net (id 1)));
  (* the relay lost its only upstream: Domino tears the app down and
     notifies downstream *)
  Alcotest.(check (list int)) "relay torn down" [ app ]
    (Flood.broken_sources relay);
  Alcotest.(check bool) "link gone" false
    (Network.link_exists net ~src:(id 1) ~dst:(id 2))

let test_domino_effect_propagates () =
  (* chain of four: killing the source cascades BrokenSource down *)
  let net = Network.create () in
  let _ = source_node net 1 ~dests:[ 2 ] in
  let f2 = flood_node net 2 ~ups:[ 1 ] ~downs:[ 3 ] in
  let f3 = flood_node net 3 ~ups:[ 2 ] ~downs:[ 4 ] in
  let f4 = flood_node net 4 ~ups:[ 3 ] ~downs:[] in
  Network.run net ~until:3.;
  Network.terminate net (id 1);
  Network.run net ~until:8.;
  List.iter
    (fun (name, f) ->
      Alcotest.(check (list int)) (name ^ " torn down") [ app ]
        (Flood.broken_sources f))
    [ ("n2", f2); ("n3", f3); ("n4", f4) ]

let test_partial_upstream_failure_keeps_flow () =
  (* two upstreams feed one relay; killing one leaves the other flow
     undisturbed (the Fig. 6(c) property) *)
  let net = Network.create () in
  let _ = source_node net ~bw:(Bwspec.total_only (kbps 50.)) 1 ~dests:[ 3 ] in
  let _ = source_node net ~bw:(Bwspec.total_only (kbps 50.)) 2 ~dests:[ 3 ] in
  let relay = flood_node net 3 ~ups:[ 1; 2 ] ~downs:[ 4 ] in
  let _ = flood_node net 4 ~ups:[ 3 ] ~downs:[] in
  Network.run net ~until:5.;
  Network.terminate net (id 1);
  Network.run net ~until:15.;
  Alcotest.(check (list int)) "no teardown" [] (Flood.broken_sources relay);
  check_close ~tol:0.15 "surviving flow" (kbps 50.)
    (Network.link_throughput net ~src:(id 2) ~dst:(id 3))

let test_send_to_dead_node_notifies () =
  let net = Network.create () in
  let log = ref [] in
  let ctxr = ref None in
  let alg =
    Ialg.make ~name:"s"
      ~on_start:(fun c -> ctxr := Some c)
      (fun _ m ->
        if m.Msg.mtype = Mt.Link_failed then log := m :: !log;
        Some Alg.Consume)
  in
  ignore (Network.add_node net ~id:(id 1) alg);
  ignore (Network.add_node net ~id:(id 2) Alg.null);
  Network.run net ~until:0.5;
  Network.terminate net (id 2);
  Network.run net ~until:1.;
  (Option.get !ctxr).Alg.send
    (Msg.data ~origin:(id 1) ~app ~seq:0 (Bytes.create 4))
    (id 2);
  Network.run net ~until:2.;
  Alcotest.(check bool) "LinkFailed delivered" true (List.length !log >= 1);
  Alcotest.(check bool) "names the peer" true
    (NI.equal (List.hd !log).Msg.origin (id 2))

let test_lost_bytes_accounting () =
  let net = Network.create ~buffer_capacity:5 () in
  let _ = source_node net 1 ~dests:[ 2 ] in
  let _ =
    flood_node net ~bw:(Bwspec.make ~down:(kbps 10.) ()) 2 ~ups:[ 1 ] ~downs:[]
  in
  Network.run net ~until:5.;
  Network.terminate net (id 2);
  Network.run net ~until:7.;
  let bytes, msgs = Network.lost net (id 2) in
  Alcotest.(check bool) "buffered bytes counted lost" true (bytes > 0);
  Alcotest.(check bool) "messages counted" true (msgs > 0)

let test_inactivity_detection () =
  let net = Network.create ~inactivity_timeout:3. () in
  let _ = source_node net 1 ~dests:[ 2 ] in
  let relay = flood_node net 2 ~ups:[ 1 ] ~downs:[] in
  Network.run net ~until:5.;
  Network.stall_link net ~src:(id 1) ~dst:(id 2) true;
  Network.run net ~until:15.;
  (* the relay declares its upstream dead and tears the app down *)
  Alcotest.(check (list int)) "inactivity teardown" [ app ]
    (Flood.broken_sources relay)

let test_terminate_idempotent () =
  let net = Network.create () in
  ignore (Network.add_node net ~id:(id 1) Alg.null);
  Network.run net ~until:0.5;
  Network.terminate net (id 1);
  Network.terminate net (id 1);
  Network.run net ~until:1.;
  Alcotest.(check bool) "dead" false (Network.is_alive (Network.node net (id 1)))

let teardowns tl nid =
  List.filter
    (fun (e : Iov_telemetry.Telemetry.event) ->
      e.kind = Iov_telemetry.Event.Teardown && NI.equal e.node nid)
    (Iov_telemetry.Telemetry.events tl)

let test_double_kill_counts_once () =
  (* killing a node twice (or killing it again after the Domino Effect
     already tore it down) must neither re-count losses nor emit a
     second teardown event *)
  let tl = Iov_telemetry.Telemetry.create () in
  let net = Network.create ~buffer_capacity:5 ~telemetry:tl () in
  let _ = source_node net 1 ~dests:[ 2 ] in
  let _ =
    flood_node net ~bw:(Bwspec.make ~down:(kbps 10.) ()) 2 ~ups:[ 1 ] ~downs:[]
  in
  Network.run net ~until:5.;
  Network.kill_node net (id 2);
  (* let every in-flight (pipelined) transmission land before sampling:
     at 10 KBps the reserved slots keep draining for a few seconds *)
  Network.run net ~until:12.;
  let lost2 = Network.lost net (id 2) in
  let lost1 = Network.lost net (id 1) in
  Network.kill_node net (id 2);
  Network.kill_node net (id 2);
  Network.run net ~until:14.;
  Alcotest.(check (pair int int)) "victim losses stable" lost2
    (Network.lost net (id 2));
  Alcotest.(check (pair int int)) "peer losses stable" lost1
    (Network.lost net (id 1));
  Alcotest.(check int) "exactly one teardown event" 1
    (List.length (teardowns tl (id 2)))

let test_peer_death_counts_sender_backlog () =
  (* the victim's peers hold queued messages for it; once the failure is
     detected those are lost and must be counted at the sender (they
     were previously leaked when the victim's side closed the link
     first) *)
  let net = Network.create ~buffer_capacity:5 () in
  let _ = source_node net 1 ~dests:[ 2 ] in
  let _ =
    flood_node net ~bw:(Bwspec.make ~down:(kbps 10.) ()) 2 ~ups:[ 1 ] ~downs:[]
  in
  Network.run net ~until:5.;
  Network.terminate net (id 2);
  Network.run net ~until:7.;
  let bytes, msgs = Network.lost net (id 1) in
  Alcotest.(check bool) "sender's queued bytes counted" true (bytes > 0);
  Alcotest.(check bool) "sender's queued messages counted" true (msgs > 0)

let test_partition_blocks_and_heals () =
  let net = Network.create () in
  let _ = source_node net 1 ~dests:[ 2 ] in
  let _ = flood_node net 2 ~ups:[ 1 ] ~downs:[] in
  Network.run net ~until:3.;
  let before = Network.app_bytes net (id 2) ~app in
  Network.set_partition net
    (Some (fun a b -> NI.equal a (id 1) && NI.equal b (id 2)));
  Alcotest.(check bool) "cut visible" true
    (Network.is_partitioned net (id 1) (id 2));
  Network.run net ~until:6.;
  let during = Network.app_bytes net (id 2) ~app in
  let lost_b, _ = Network.lost net (id 2) in
  (* only in-flight transmissions may still land; the flow is dead *)
  Alcotest.(check bool) "delivery stopped" true (during - before < 20_000);
  Alcotest.(check bool) "blackholed bytes counted" true (lost_b > 0);
  Alcotest.(check bool) "link stays open" true
    (Network.link_exists net ~src:(id 1) ~dst:(id 2));
  Network.set_partition net None;
  Network.run net ~until:9.;
  Alcotest.(check bool) "flow resumes after heal" true
    (Network.app_bytes net (id 2) ~app - during > 50_000)

let test_link_loss_drops () =
  let net = Network.create ~seed:7 () in
  let _ = source_node net ~bw:(Bwspec.total_only (kbps 100.)) 1 ~dests:[ 2 ] in
  let _ = flood_node net 2 ~ups:[ 1 ] ~downs:[] in
  Network.set_link_loss net ~src:(id 1) ~dst:(id 2) 0.5;
  Alcotest.(check (option (pair (float 0.) (float 0.)))) "probabilities stored"
    (Some (0.5, 0.)) (Network.link_loss net ~src:(id 1) ~dst:(id 2));
  Network.run net ~until:10.;
  let _, lost_m = Network.lost net (id 2) in
  let delivered = Network.app_bytes net (id 2) ~app in
  Alcotest.(check bool) "some messages vanish" true (lost_m > 20);
  Alcotest.(check bool) "some messages survive" true (delivered > 0);
  (* the loss draw is seeded: roughly half the traffic disappears *)
  let total = float_of_int (lost_m * (5 * 1024) + delivered) in
  let frac = float_of_int delivered /. total in
  Alcotest.(check bool) "roughly half lost" true (frac > 0.3 && frac < 0.7);
  Alcotest.check_raises "probability validated"
    (Invalid_argument "Network.set_link_loss: p") (fun () ->
      Network.set_link_loss net ~src:(id 1) ~dst:(id 2) 1.5)

let test_corruption_uses_private_copy () =
  (* one lossy branch of a zero-copy fanout: the clean branch must keep
     the source's physical buffer, the corrupted branch must get a
     modified private copy *)
  let net = Network.create ~seed:5 () in
  let got3 = ref [] and got4 = ref [] in
  let recorder cell =
    Ialg.make ~name:"r" (fun _ m ->
        if m.Msg.mtype = Mt.Data then cell := m.Msg.payload :: !cell;
        Some Alg.Consume)
  in
  let ctxr = ref None in
  ignore
    (Network.add_node net ~id:(id 1)
       (Ialg.make ~name:"s" ~on_start:(fun c -> ctxr := Some c) (fun _ _ ->
            Some Alg.Consume)));
  let f = Flood.create () in
  Flood.set_route f ~app ~upstreams:[ id 1 ] ~downstreams:[ id 3; id 4 ] ();
  ignore (Network.add_node net ~id:(id 2) (Flood.algorithm f));
  ignore (Network.add_node net ~id:(id 3) (recorder got3));
  ignore (Network.add_node net ~id:(id 4) (recorder got4));
  Network.run net ~until:0.1;
  Network.set_link_loss net ~src:(id 2) ~dst:(id 3) ~corrupt:1.0 0.;
  let payload = Bytes.of_string "bits on the wire" in
  (Option.get !ctxr).Alg.send
    (Msg.data ~origin:(id 1) ~app ~seq:0 payload)
    (id 2);
  Network.run net ~until:2.;
  match (!got3, !got4) with
  | [ corrupted ], [ clean ] ->
    Alcotest.(check bool) "clean branch shares the buffer" true
      (clean == payload);
    Alcotest.(check bool) "corrupted branch got a copy" true
      (corrupted != payload);
    Alcotest.(check bool) "exactly a one-byte flip" true
      (Bytes.length corrupted = Bytes.length payload
      && corrupted <> payload)
  | a, b -> Alcotest.failf "expected 1+1 deliveries, got %d and %d"
              (List.length a) (List.length b)

let test_respawn_reuses_id () =
  let tl = Iov_telemetry.Telemetry.create () in
  let net = Network.create ~telemetry:tl () in
  let _ = source_node net 1 ~dests:[ 2 ] in
  let _ = flood_node net 2 ~ups:[ 1 ] ~downs:[] in
  Network.run net ~until:2.;
  Network.kill_node net (id 2);
  Network.run net ~until:3.;
  let before = Network.app_bytes net (id 2) ~app in
  (* same id comes back: accepted, recorded as a respawn *)
  let _ = flood_node net 2 ~ups:[ 1 ] ~downs:[] in
  Network.connect net (id 1) (id 2);
  Network.run net ~until:4.;
  Alcotest.(check bool) "alive again" true
    (Network.is_alive (Network.node net (id 2)));
  let respawns =
    List.filter
      (fun (e : Iov_telemetry.Telemetry.event) ->
        e.kind = Iov_telemetry.Event.Respawn && NI.equal e.node (id 2))
      (Iov_telemetry.Telemetry.events tl)
  in
  Alcotest.(check int) "one respawn event" 1 (List.length respawns);
  ignore before;
  (* a live id is still rejected *)
  match Network.add_node net ~id:(id 2) Alg.null with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "live duplicate accepted"

(* ------------------------------------------------------------------ *)
(* Control path and metering *)

let test_control_bytes_metered () =
  let net = Network.create () in
  let ctxr = ref None in
  ignore
    (Network.add_node net ~id:(id 1)
       (Ialg.make ~name:"s" ~on_start:(fun c -> ctxr := Some c) (fun _ _ ->
            Some Alg.Consume)));
  ignore (Network.add_node net ~id:(id 2) Alg.null);
  Network.run net ~until:0.1;
  let m = Msg.control ~mtype:Mt.S_aware ~origin:(id 1) (Bytes.create 40) in
  (Option.get !ctxr).Alg.send m (id 2);
  Network.run net ~until:1.;
  Alcotest.(check int) "sender metered" (Msg.size m)
    (Network.control_bytes_sent net (id 1) Mt.S_aware);
  Alcotest.(check int) "receiver metered" (Msg.size m)
    (Network.control_bytes_received net (id 2) Mt.S_aware);
  Alcotest.(check int) "aggregate" (Msg.size m)
    (Network.control_bytes_sent_all net Mt.S_aware)

let test_control_does_not_consume_bandwidth () =
  let net = Network.create () in
  let ctxr = ref None in
  ignore
    (Network.add_node net
       ~bw:(Bwspec.total_only 1024.) (* 1 KBps only *)
       ~id:(id 1)
       (Ialg.make ~name:"s" ~on_start:(fun c -> ctxr := Some c) (fun _ _ ->
            Some Alg.Consume)));
  let alg, log = recording () in
  ignore (Network.add_node net ~id:(id 2) alg);
  Network.run net ~until:0.1;
  (* 100 control messages of 1 KB each would take 100 s on the data
     path; they arrive promptly on the control path *)
  for i = 0 to 99 do
    (Option.get !ctxr).Alg.send
      (Msg.control ~mtype:Mt.S_query ~origin:(id 1) ~seq:i (Bytes.create 1000))
      (id 2)
  done;
  Network.run net ~until:1.;
  Alcotest.(check int) "all delivered fast" 100 (List.length !log)

let test_status_snapshot () =
  let net = Network.create () in
  let _ = source_node net 1 ~dests:[ 2 ] in
  let _ = flood_node net 2 ~ups:[ 1 ] ~downs:[ 3 ] in
  let _ = flood_node net 3 ~ups:[ 2 ] ~downs:[] in
  Network.run net ~until:5.;
  match Network.make_status net (id 2) with
  | Some st ->
    Alcotest.(check int) "one upstream" 1 (List.length st.Iov_msg.Status.upstreams);
    Alcotest.(check int) "one downstream" 1
      (List.length st.Iov_msg.Status.downstreams);
    let up = List.hd st.Iov_msg.Status.upstreams in
    Alcotest.(check bool) "upstream is n1" true
      (NI.equal up.Iov_msg.Status.peer (id 1));
    Alcotest.(check bool) "rate measured" true (up.Iov_msg.Status.rate > 0.)
  | None -> Alcotest.fail "no status"

let test_throughput_reports_reach_algorithm () =
  let net = Network.create () in
  let reports = ref 0 in
  let alg =
    Ialg.make ~name:"listener" (fun _ m ->
        (match m.Msg.mtype with
        | Mt.Up_throughput -> incr reports
        | _ -> ());
        Some Alg.Consume)
  in
  let _ = source_node net 1 ~dests:[ 2 ] in
  ignore (Network.add_node net ~id:(id 2) alg);
  Network.run net ~until:5.;
  Alcotest.(check bool) "periodic UpThroughput" true (!reports >= 3)

let test_measure () =
  let net = Network.create () in
  let ctxr = ref None in
  ignore
    (Network.add_node net
       ~bw:(Bwspec.make ~up:(kbps 80.) ())
       ~id:(id 1)
       (Ialg.make ~name:"s" ~on_start:(fun c -> ctxr := Some c) (fun _ _ ->
            Some Alg.Consume)));
  ignore
    (Network.add_node net ~bw:(Bwspec.make ~down:(kbps 60.) ()) ~id:(id 2)
       Alg.null);
  Network.run net ~until:0.1;
  let result = ref None in
  (Option.get !ctxr).Alg.measure (id 2) (fun ~bandwidth ~latency ->
      result := Some (bandwidth, latency));
  Network.run net ~until:1.;
  match !result with
  | Some (bw, lat) ->
    Alcotest.(check bool) "latency positive" true (lat > 0.);
    (* min of 80 up and 60 down, with ±5% noise *)
    Alcotest.(check bool) "bandwidth near bottleneck" true
      (Float.abs (bw -. kbps 60.) < kbps 60. *. 0.06)
  | None -> Alcotest.fail "measurement never returned"

let test_duplicate_node_rejected () =
  let net = Network.create () in
  ignore (Network.add_node net ~id:(id 1) Alg.null);
  match Network.add_node net ~id:(id 1) Alg.null with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate id accepted"

let test_weighted_round_robin () =
  (* the switch is the bottleneck (CPU-limited relay); in-link weights
     split its service 3:1 *)
  let net = Network.create () in
  let host = Network.add_host net ~cpu:(`Calibrated (0.001, 0.)) "relay-host" in
  let s1 = Source.create ~payload_size:1000 ~app:1 ~dests:[ id 3 ] () in
  let s2 = Source.create ~payload_size:1000 ~app:2 ~dests:[ id 3 ] () in
  ignore (Network.add_node net ~id:(id 1) (Source.algorithm s1));
  ignore (Network.add_node net ~id:(id 2) (Source.algorithm s2));
  let f = Flood.create () in
  Flood.set_route f ~app:1 ~upstreams:[ id 1 ] ~downstreams:[ id 4 ] ();
  Flood.set_route f ~app:2 ~upstreams:[ id 2 ] ~downstreams:[ id 5 ] ();
  ignore (Network.add_node net ~host ~id:(id 3) (Flood.algorithm f));
  ignore (Network.add_node net ~id:(id 4) Alg.null);
  ignore (Network.add_node net ~id:(id 5) Alg.null);
  Network.run net ~until:2.;
  Network.set_link_weight net ~src:(id 1) ~dst:(id 3) 3;
  Alcotest.(check int) "weight readable" 3
    (Network.link_weight net ~src:(id 1) ~dst:(id 3));
  let b4 = Network.app_bytes net (id 4) ~app:1 in
  let b5 = Network.app_bytes net (id 5) ~app:2 in
  Network.run net ~until:22.;
  let d4 = Network.app_bytes net (id 4) ~app:1 - b4 in
  let d5 = Network.app_bytes net (id 5) ~app:2 - b5 in
  let ratio = float_of_int d4 /. float_of_int (Stdlib.max 1 d5) in
  if ratio < 2.5 || ratio > 3.5 then
    Alcotest.failf "expected ~3:1 split, got %.2f (%d vs %d)" ratio d4 d5

(* The switch's weighted round-robin rotation, kept in a [Ring], against
   the list rotation it replaced ([tl @ List.rev (l :: tried)]), on random
   weights, arrivals, blocked fanouts and in-link closes. Each side runs
   on its own copy of the links; picks and the order of fanout retries
   must agree. *)
module Ring = Iov_core.Ring

type rlink = {
  rid : int;
  mutable weight : int;
  mutable left : int;
  mutable queued : int;  (** messages waiting in the receiver buffer *)
  mutable pending : int;
      (** -1: no pending fanout; k >= 0: the fanout clears on the retry
          after k more failed ones *)
}

type rcmd = Arrive of int | Switch of int | Open of int | Close of int | Weight of int * int

let rcmd_print = function
  | Arrive i -> Printf.sprintf "arrive %d" i
  | Switch b -> Printf.sprintf "switch/blocked %d" b
  | Open i -> Printf.sprintf "open %d" i
  | Close i -> Printf.sprintf "close %d" i
  | Weight (i, w) -> Printf.sprintf "weight %d %d" i w

let rcmd_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun i -> Arrive i) (int_bound 5));
        (6, map (fun b -> Switch b) (frequency [ (3, return (-1)); (1, int_bound 3) ]));
        (1, map (fun i -> Open i) (int_bound 5));
        (1, map (fun i -> Close i) (int_bound 5));
        (1, map2 (fun i w -> Weight (i, w)) (int_bound 5) (int_range 1 4));
      ])

(* the retry of a pending fanout, logged *)
let retry log l =
  log := l.rid :: !log;
  if l.pending = 0 then l.pending <- -1 else l.pending <- l.pending - 1;
  l.pending < 0

let switchable log l = (l.pending < 0 || retry log l) && l.queued > 0

let list_next rr log =
  let rec scan tried = function
    | [] -> None
    | l :: tl ->
      if switchable log l then begin
        l.left <- l.left - 1;
        if l.left <= 0 then begin
          l.left <- l.weight;
          rr := tl @ List.rev (l :: tried)
        end
        else rr := (l :: tl) @ List.rev tried;
        Some l
      end
      else scan (l :: tried) tl
  in
  scan [] !rr

let ring_next ring log =
  match Ring.find ring (switchable log) with
  | Some l as found ->
    l.left <- l.left - 1;
    if l.left <= 0 then begin
      l.left <- l.weight;
      Ring.advance ring
    end;
    found
  | None -> None

(* runs [cmds] on one side: [next] picks, [add]/[remove] change the
   membership; returns every pick and retry, in order *)
let run_rotation cmds ~next ~add ~remove =
  let links = Hashtbl.create 8 and out = ref [] in
  let apply = function
    | Arrive i -> Option.iter (fun l -> l.queued <- l.queued + 1) (Hashtbl.find_opt links i)
    | Switch b ->
      let log = ref [] in
      let pick = next log in
      Option.iter
        (fun l ->
          l.queued <- l.queued - 1;
          l.pending <- b)
        pick;
      out := (Option.map (fun l -> l.rid) pick, List.rev !log) :: !out
    | Open i ->
      if not (Hashtbl.mem links i) then begin
        let l = { rid = i; weight = 1; left = 1; queued = 0; pending = -1 } in
        Hashtbl.replace links i l;
        add l
      end
    | Close i ->
      Option.iter
        (fun l ->
          Hashtbl.remove links i;
          remove l)
        (Hashtbl.find_opt links i)
    | Weight (i, w) ->
      Option.iter
        (fun l ->
          l.weight <- w;
          l.left <- min l.left w)
        (Hashtbl.find_opt links i)
  in
  List.iter apply (List.init 4 (fun i -> Open i) @ cmds);
  List.rev !out

let rotation_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"ring rotation matches the list rotation"
       (QCheck.make
          ~print:(fun l -> String.concat "; " (List.map rcmd_print l))
          QCheck.Gen.(list_size (int_range 1 200) rcmd_gen))
       (fun cmds ->
         let rr = ref [] and ring = Ring.create () in
         run_rotation cmds ~next:(list_next rr)
           ~add:(fun l -> rr := !rr @ [ l ])
           ~remove:(fun l -> rr := List.filter (fun x -> x != l) !rr)
         = run_rotation cmds ~next:(ring_next ring) ~add:(Ring.add ring)
             ~remove:(Ring.remove ring)))

let test_weight_validation () =
  let net = Network.create () in
  ignore (Network.add_node net ~id:(id 1) Alg.null);
  ignore (Network.add_node net ~id:(id 2) Alg.null);
  Network.connect net (id 1) (id 2);
  Alcotest.check_raises "weight >= 1"
    (Invalid_argument "Network.set_link_weight: weight") (fun () ->
      Network.set_link_weight net ~src:(id 1) ~dst:(id 2) 0);
  Alcotest.check_raises "unknown link"
    (Invalid_argument "Network.set_link_weight: no such link") (fun () ->
      Network.set_link_weight net ~src:(id 2) ~dst:(id 1) 2);
  Alcotest.(check int) "unknown weight is 0" 0
    (Network.link_weight net ~src:(id 2) ~dst:(id 1))

let test_disconnect_stops_traffic () =
  let net = Network.create () in
  let _ = source_node net 1 ~dests:[ 2 ] in
  let _ = flood_node net 2 ~ups:[ 1 ] ~downs:[] in
  Network.run net ~until:3.;
  Network.disconnect net ~src:(id 1) ~dst:(id 2);
  Network.run net ~until:5.;
  let b = Network.app_bytes net (id 2) ~app in
  Network.run net ~until:10.;
  (* buffered messages may still drain briefly, then the flow stops *)
  let b2 = Network.app_bytes net (id 2) ~app in
  Network.run net ~until:15.;
  let b3 = Network.app_bytes net (id 2) ~app in
  Alcotest.(check bool) "flow dried up" true (b3 = b2 || b3 - b < 100000)

let test_pipeline_depth_limits_latency_bandwidth () =
  (* depth 1 on a high-latency link: one message per (latency+xmit) *)
  let rate = kbps 200. in
  let run_with depth =
    let net =
      Network.create ~pipeline_depth:depth ~default_latency:0.1
        ~buffer_capacity:100 ()
    in
    let _ =
      source_node net ~bw:(Bwspec.make ~up:rate ()) 1 ~dests:[ 2 ]
    in
    let _ = flood_node net 2 ~ups:[ 1 ] ~downs:[] in
    Network.run net ~until:15.;
    Network.link_throughput net ~src:(id 1) ~dst:(id 2)
  in
  let shallow = run_with 1 in
  let deep = run_with 8 in
  Alcotest.(check bool) "pipelining fills the pipe" true (deep > 2. *. shallow);
  check_close ~tol:0.1 "deep reaches the cap" rate deep

let test_endpoint_receives_control () =
  let net = Network.create () in
  let got = ref 0 in
  Network.register_endpoint net (id 50) (fun _ -> incr got);
  let ctxr = ref None in
  ignore
    (Network.add_node net ~id:(id 1)
       (Ialg.make ~name:"s" ~on_start:(fun c -> ctxr := Some c) (fun _ _ ->
            Some Alg.Consume)));
  Network.run net ~until:0.1;
  (Option.get !ctxr).Alg.send
    (Msg.control ~mtype:Mt.Trace ~origin:(id 1) Bytes.empty)
    (id 50);
  Network.run net ~until:1.;
  Alcotest.(check int) "endpoint handler ran" 1 !got

(* ------------------------------------------------------------------ *)
(* Deeper delivery semantics *)

let test_fifo_per_link () =
  let net = Network.create () in
  let seqs = ref [] in
  let sink =
    Ialg.make ~name:"sink" (fun _ m ->
        if m.Msg.mtype = Mt.Data then seqs := m.Msg.seq :: !seqs;
        Some Alg.Consume)
  in
  ignore (Network.add_node net ~id:(id 2) sink);
  let ctxr = ref None in
  ignore
    (Network.add_node net
       ~bw:(Bwspec.total_only (kbps 100.))
       ~id:(id 1)
       (Ialg.make ~name:"s" ~on_start:(fun c -> ctxr := Some c) (fun _ _ ->
            Some Alg.Consume)));
  Network.run net ~until:0.1;
  for i = 0 to 199 do
    (Option.get !ctxr).Alg.send
      (Msg.data ~origin:(id 1) ~app ~seq:i (Bytes.create 128))
      (id 2)
  done;
  Network.run net ~until:10.;
  let got = List.rev !seqs in
  Alcotest.(check int) "all delivered" 200 (List.length got);
  Alcotest.(check bool) "in FIFO order" true
    (got = List.init 200 (fun i -> i))

let test_zero_copy_forwarding () =
  (* the switch forwards references: both receivers must observe the
     physically same payload buffer the source created *)
  let net = Network.create () in
  let received = ref [] in
  let recorder =
    Ialg.make ~name:"r" (fun _ m ->
        if m.Msg.mtype = Mt.Data then received := m.Msg.payload :: !received;
        Some Alg.Consume)
  in
  let ctxr = ref None in
  ignore
    (Network.add_node net ~id:(id 1)
       (Ialg.make ~name:"s" ~on_start:(fun c -> ctxr := Some c) (fun _ _ ->
            Some Alg.Consume)));
  let f = Flood.create () in
  Flood.set_route f ~app ~upstreams:[ id 1 ] ~downstreams:[ id 3; id 4 ] ();
  ignore (Network.add_node net ~id:(id 2) (Flood.algorithm f));
  ignore (Network.add_node net ~id:(id 3) recorder);
  ignore (Network.add_node net ~id:(id 4) recorder);
  Network.run net ~until:0.1;
  let payload = Bytes.of_string "the one true buffer" in
  (Option.get !ctxr).Alg.send
    (Msg.data ~origin:(id 1) ~app ~seq:0 payload)
    (id 2);
  Network.run net ~until:2.;
  match !received with
  | [ a; b ] ->
    Alcotest.(check bool) "both are the source's buffer" true
      (a == payload && b == payload)
  | l -> Alcotest.failf "expected 2 deliveries, got %d" (List.length l)

let test_app_meters_are_separate () =
  let net = Network.create () in
  let s1 = Source.create ~payload_size:1000 ~app:1 ~dests:[ id 3 ] () in
  let s2 =
    Source.create ~pacing:(`Rate (kbps 5.)) ~payload_size:1000 ~app:2
      ~dests:[ id 3 ] ()
  in
  ignore
    (Network.add_node net
       ~bw:(Bwspec.total_only (kbps 50.))
       ~id:(id 1) (Source.algorithm s1));
  ignore (Network.add_node net ~id:(id 2) (Source.algorithm s2));
  ignore (Network.add_node net ~id:(id 3) Alg.null);
  Network.run net ~until:10.;
  let b1 = Network.app_bytes net (id 3) ~app:1 in
  let b2 = Network.app_bytes net (id 3) ~app:2 in
  Alcotest.(check bool) "both apps measured" true (b1 > 0 && b2 > 0);
  Alcotest.(check bool) "apps differ as expected" true (b1 > 3 * b2)

let test_wide_fanout () =
  let net = Network.create () in
  let _ = source_node net ~payload_size:1000 1 ~dests:[ 2 ] in
  let _ = flood_node net 2 ~ups:[ 1 ] ~downs:[ 3; 4; 5; 6; 7; 8; 9; 10 ] in
  for i = 3 to 10 do
    ignore (Network.add_node net ~id:(id i) Alg.null)
  done;
  Network.run net ~until:5.;
  for i = 3 to 10 do
    Alcotest.(check bool)
      (Printf.sprintf "receiver %d served" i)
      true
      (Network.app_bytes net (id i) ~app > 0)
  done

let test_per_node_buffer_override () =
  let net = Network.create ~buffer_capacity:5 () in
  ignore (Network.add_node net ~buffer_capacity:50 ~id:(id 1) Alg.null);
  ignore (Network.add_node net ~id:(id 2) Alg.null);
  Network.connect net (id 1) (id 2);
  Network.run net ~until:0.5;
  match Network.make_status net (id 1) with
  | Some st ->
    let d = List.hd st.Iov_msg.Status.downstreams in
    Alcotest.(check int) "sender buffer uses the override" 50
      d.Iov_msg.Status.buffer_capacity
  | None -> Alcotest.fail "no status"

(* ------------------------------------------------------------------ *)
(* Randomized stress: arbitrary runtime operations must never crash
   the engine, and the accounting must stay sane. *)

type fuzz_op =
  | Set_node_bw of int * float
  | Set_link_bw of int * int * float
  | Set_weight of int * int * int
  | Kill of int
  | Run_for of float

let fuzz_op_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun i r -> Set_node_bw (i, r)) (int_range 1 6)
          (float_range 1024. 500_000.);
        map3
          (fun i j r -> Set_link_bw (i, j, r))
          (int_range 1 6) (int_range 1 6)
          (float_range 1024. 500_000.);
        map3 (fun i j w -> Set_weight (i, j, w)) (int_range 1 6)
          (int_range 1 6) (int_range 1 4);
        map (fun i -> Kill i) (int_range 2 6);
        map (fun t -> Run_for t) (float_range 0.1 3.);
      ])

let fuzz_print = function
  | Set_node_bw (i, r) -> Printf.sprintf "SetNodeBw(%d, %.0f)" i r
  | Set_link_bw (i, j, r) -> Printf.sprintf "SetLinkBw(%d, %d, %.0f)" i j r
  | Set_weight (i, j, w) -> Printf.sprintf "SetWeight(%d, %d, %d)" i j w
  | Kill i -> Printf.sprintf "Kill(%d)" i
  | Run_for t -> Printf.sprintf "Run(%.2f)" t

(* a diamond-with-tail workload: 1 sources to {2,3}, both relay to 4,
   4 to 5, plus a leaf 6 off node 2 *)
let fuzz_prop ops =
  let net = Network.create ~buffer_capacity:4 () in
  let src = source_node net ~payload_size:512 1 ~dests:[ 2; 3 ] in
  let _ = flood_node net 2 ~ups:[ 1 ] ~downs:[ 4; 6 ] in
  let _ = flood_node net 3 ~ups:[ 1 ] ~downs:[ 4 ] in
  let _ = flood_node net 4 ~ups:[ 2; 3 ] ~downs:[ 5 ] in
  let _ = flood_node net 5 ~ups:[ 4 ] ~downs:[] in
  let _ = flood_node net 6 ~ups:[ 2 ] ~downs:[] in
  Network.run net ~until:1.;
  List.iter
    (fun op ->
      match op with
      | Set_node_bw (i, r) ->
        Network.set_node_bandwidth net (id i) (Bwspec.total_only r)
      | Set_link_bw (i, j, r) ->
        if i <> j && Network.is_alive (Network.node net (id i)) then
          if
            Network.is_alive (Network.node net (id j))
            || Network.link_exists net ~src:(id i) ~dst:(id j)
          then Network.set_link_bandwidth net ~src:(id i) ~dst:(id j) r
      | Set_weight (i, j, w) ->
        if Network.link_exists net ~src:(id i) ~dst:(id j) then
          Network.set_link_weight net ~src:(id i) ~dst:(id j) w
      | Kill i -> Network.terminate net (id i)
      | Run_for t ->
        let now = Network.now net in
        Network.run net ~until:(now +. t))
    ops;
  let now = Network.now net in
  Network.run net ~until:(now +. 5.);
  (* invariants: accounting is non-negative and deliveries are bounded
     by what the source produced (each message visits a node once) *)
  let sent_bytes = Source.sent src * (512 + Iov_msg.Message.header_size) in
  List.for_all
    (fun i ->
      let delivered = Network.app_bytes net (id i) ~app in
      let lost_b, lost_m = Network.lost net (id i) in
      delivered >= 0 && lost_b >= 0 && lost_m >= 0
      && delivered <= sent_bytes
      && Network.app_rate net (id i) ~app >= 0.)
    [ 2; 3; 4; 5; 6 ]

let fuzz_test =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"random runtime operations"
       (QCheck.make ~print:(fun l -> String.concat "; " (List.map fuzz_print l))
          QCheck.Gen.(list_size (int_range 1 15) fuzz_op_gen))
       fuzz_prop)

let () =
  Alcotest.run "network"
    [
      ( "delivery",
        [
          Alcotest.test_case "end-to-end" `Quick test_end_to_end_delivery;
          Alcotest.test_case "chain forwarding" `Quick test_chain_forwarding;
          Alcotest.test_case "latency" `Quick test_latency_delays_delivery;
        ] );
      ( "bandwidth",
        [
          Alcotest.test_case "per-node total" `Quick test_per_node_total_cap;
          Alcotest.test_case "total shared across links" `Quick
            test_total_cap_shared_across_links;
          Alcotest.test_case "total counts in+out" `Quick
            test_total_cap_counts_in_and_out;
          Alcotest.test_case "asymmetric up/down" `Quick
            test_asymmetric_updown;
          Alcotest.test_case "receiver downlink" `Quick test_downlink_cap;
          Alcotest.test_case "per-link at runtime" `Quick
            test_per_link_cap_runtime;
          Alcotest.test_case "Set_bandwidth message" `Quick
            test_set_bandwidth_via_control;
        ] );
      ( "back-pressure",
        [
          Alcotest.test_case "small buffers throttle" `Quick
            test_back_pressure_small_buffers;
          Alcotest.test_case "large buffers localize" `Quick
            test_large_buffers_delay_throttling;
          Alcotest.test_case "copy fanout blocks on slowest" `Quick
            test_copy_fanout_blocks_on_slowest;
        ] );
      ( "failures",
        [
          Alcotest.test_case "terminate notifies peers" `Quick
            test_terminate_notifies_peers;
          Alcotest.test_case "domino effect" `Quick
            test_domino_effect_propagates;
          Alcotest.test_case "partial upstream failure" `Quick
            test_partial_upstream_failure_keeps_flow;
          Alcotest.test_case "send to dead node" `Quick
            test_send_to_dead_node_notifies;
          Alcotest.test_case "lost bytes accounting" `Quick
            test_lost_bytes_accounting;
          Alcotest.test_case "inactivity detection" `Quick
            test_inactivity_detection;
          Alcotest.test_case "terminate idempotent" `Quick
            test_terminate_idempotent;
          Alcotest.test_case "double kill counts once" `Quick
            test_double_kill_counts_once;
          Alcotest.test_case "peer death counts sender backlog" `Quick
            test_peer_death_counts_sender_backlog;
          Alcotest.test_case "partition blocks and heals" `Quick
            test_partition_blocks_and_heals;
          Alcotest.test_case "link loss" `Quick test_link_loss_drops;
          Alcotest.test_case "corruption keeps fanout intact" `Quick
            test_corruption_uses_private_copy;
          Alcotest.test_case "respawn reuses id" `Quick test_respawn_reuses_id;
        ] );
      ( "control",
        [
          Alcotest.test_case "byte metering" `Quick test_control_bytes_metered;
          Alcotest.test_case "no bandwidth consumption" `Quick
            test_control_does_not_consume_bandwidth;
          Alcotest.test_case "status snapshot" `Quick test_status_snapshot;
          Alcotest.test_case "throughput reports" `Quick
            test_throughput_reports_reach_algorithm;
          Alcotest.test_case "measure utility" `Quick test_measure;
          Alcotest.test_case "duplicate ids rejected" `Quick
            test_duplicate_node_rejected;
          Alcotest.test_case "endpoints" `Quick test_endpoint_receives_control;
        ] );
      ( "switch",
        [
          Alcotest.test_case "weighted round-robin" `Quick
            test_weighted_round_robin;
          Alcotest.test_case "weight validation" `Quick test_weight_validation;
          Alcotest.test_case "graceful disconnect" `Quick
            test_disconnect_stops_traffic;
          Alcotest.test_case "pipelining across latency" `Quick
            test_pipeline_depth_limits_latency_bandwidth;
          rotation_prop;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "FIFO per link" `Quick test_fifo_per_link;
          Alcotest.test_case "zero-copy forwarding" `Quick
            test_zero_copy_forwarding;
          Alcotest.test_case "per-app meters" `Quick
            test_app_meters_are_separate;
          Alcotest.test_case "wide fanout" `Quick test_wide_fanout;
          Alcotest.test_case "buffer override" `Quick
            test_per_node_buffer_override;
        ] );
      ("fuzz", [ fuzz_test ]);
    ]
