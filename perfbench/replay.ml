(* The layer replay of traced runs: after a live trial, the trial's own
   message mix (payload size, batch size) is pushed through each socket
   layer's public functions one at a time, timed from outside. Live
   spans cannot separate these layers, because inside the runtime they
   run on other threads and interleave with kernel waits.

   The kernel stage is one thread writing a batch into a loopback TCP
   connection and reading it straight back, so a timed [read] never
   includes a wait for data, nor a wait for the runtime lock held by
   another OCaml thread. *)

open Perfbench
module Msg = Iov_msg.Message
module Codec = Iov_msg.Codec
module NI = Iov_msg.Node_id
module Batcher = Iov_onet.Batcher
module Squeue = Iov_onet.Squeue
module Tel = Iov_telemetry.Telemetry
module Ev = Iov_telemetry.Event

type result = {
  encode_ns_per_msg : float;
  add_ns_per_msg : float;
  flush_self_ns_per_batch : float;
  write_ns_per_kb : float;
  read_ns_per_kb : float;
  parse_ns_per_msg : float;
  handoff_ns_per_msg : float;
  record_ns : float;
}

(* A batch never exceeds this many wire bytes, so a flush always fits in
   the loopback socket buffers and a single thread cannot block on its
   own unread data. *)
let max_batch_bytes = 65536

let loopback_pair () =
  let l = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind l (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen l 1;
  let w = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect w (Unix.getsockname l);
  let r, _ = Unix.accept l in
  Unix.close l;
  List.iter
    (fun fd ->
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Unix.setsockopt_int fd Unix.SO_SNDBUF (4 * max_batch_bytes);
      Unix.setsockopt_int fd Unix.SO_RCVBUF (4 * max_batch_bytes))
    [ w; r ];
  (w, r)

(* Each replay leaves the spans of its first batches in the dump; the
   rest are timed the same way but not recorded, so that the live
   trials' spans keep their room in the recorder. *)
let recorded_batches = 64

let per a b = if b <= 0 then 0. else float_of_int a /. float_of_int b

let run ~spans ~payload ~batch ~msgs =
  let pay = Payload.create ~seed:7 ~size:payload in
  let origin = NI.synthetic 1 in
  let wire = payload + Msg.header_size in
  let batch = max 1 (min batch (max_batch_bytes / wire)) in
  let nbatch = max 1 (msgs / batch) in
  let msgs = nbatch * batch in
  let mix =
    Array.init batch (fun i ->
        Msg.data ~origin ~app:1 ~seq:i (Payload.make pay ~seq:i ~stamp:0))
  in
  (* message: encode *)
  let buf = Bytes.create wire in
  let t0 = Clock.now_ns () in
  for i = 0 to msgs - 1 do
    ignore (Codec.encode_into mix.(i mod batch) buf 0)
  done;
  let encode_ns = Clock.now_ns () - t0 in
  (* batcher, kernel and parser, one batch at a time *)
  let w, r = loopback_pair () in
  let b = Batcher.standalone () in
  let stream = Codec.Stream.create () in
  let add_ns = ref 0 and flush_self = ref 0 and write_ns = ref 0 in
  let read_ns = ref 0 and parse_ns = ref 0 and bytes = ref 0 in
  for k = 0 to nbatch - 1 do
    let a0 = Clock.now_ns () in
    Array.iter (fun m -> ignore (Batcher.add b m)) mix;
    let f0 = Clock.now_ns () in
    let recorded = k < recorded_batches in
    let flush_slot =
      if recorded then Spans.add spans ~name:"replay.flush" ~start:f0 ~stop:f0 ~trace:k ()
      else -1
    in
    let writes = ref [] in
    let write buf off len =
      let s = Clock.now_ns () in
      let n = Unix.write w buf off len in
      let e = Clock.now_ns () in
      writes := (s, e) :: !writes;
      if recorded then
        ignore (Spans.add spans ~name:"kernel.write" ~start:s ~stop:e
                  ~parent:flush_slot ~trace:k ());
      n
    in
    let staged = Batcher.length b in
    ignore (Batcher.flush b ~write);
    let f1 = Clock.now_ns () in
    Spans.finish spans flush_slot ~stop:f1;
    add_ns := !add_ns + (f0 - a0);
    flush_self := !flush_self + Spans.self_ns ~start:f0 ~stop:f1 !writes;
    List.iter (fun (s, e) -> write_ns := !write_ns + (e - s)) !writes;
    bytes := !bytes + staged;
    let got = ref 0 in
    while !got < batch do
      let rb, ro = Codec.Stream.reserve stream max_batch_bytes in
      let s = Clock.now_ns () in
      let n = Unix.read r rb ro max_batch_bytes in
      let e = Clock.now_ns () in
      if n = 0 then failwith "replay: loopback connection closed";
      read_ns := !read_ns + (e - s);
      Codec.Stream.commit stream n;
      let rec parse () =
        match Codec.Stream.next stream with
        | Some _ ->
          incr got;
          parse ()
        | None -> ()
      in
      parse ();
      parse_ns := !parse_ns + (Clock.now_ns () - e)
    done
  done;
  Unix.close w;
  Unix.close r;
  (* Squeue: receiver-thread push_list to engine-thread pop_batch *)
  let q = Squeue.create ~capacity:(max 16 batch) in
  let batch_list = Array.to_list mix in
  let h0 = Clock.now_ns () in
  let producer =
    Thread.create
      (fun () ->
        for _ = 1 to nbatch do
          ignore (Squeue.push_list q batch_list)
        done)
      ()
  in
  let taken = ref 0 in
  while !taken < msgs do
    taken := !taken + List.length (Squeue.pop_batch q ~max:batch)
  done;
  let handoff_ns = Clock.now_ns () - h0 in
  Thread.join producer;
  (* telemetry: one flight-recorder append *)
  let tl = Tel.create ~ring_capacity:4096 () in
  let tr = Tel.tracer tl origin in
  let nrec = 100_000 in
  let r0 = Clock.now_ns () in
  for i = 1 to nrec do
    Tel.record tl tr ~time:0. ~kind:Ev.Send ~peer:origin ~id:i ~app:1 ~mseq:i
      ~size:wire
  done;
  let record_ns = Clock.now_ns () - r0 in
  let kb = float_of_int !bytes /. 1024. in
  {
    encode_ns_per_msg = per encode_ns msgs;
    add_ns_per_msg = per !add_ns msgs;
    flush_self_ns_per_batch = per !flush_self nbatch;
    write_ns_per_kb = float_of_int !write_ns /. kb;
    read_ns_per_kb = float_of_int !read_ns /. kb;
    parse_ns_per_msg = per !parse_ns msgs;
    handoff_ns_per_msg = per handoff_ns msgs;
    record_ns = per record_ns nrec;
  }

(* Median of each field over the replays of a run. *)
let layers results =
  let med f = Stats.median (Array.of_list (List.map f results)) in
  [
    ("message.encode_ns_per_msg", med (fun r -> r.encode_ns_per_msg));
    ("onet.batcher.add_ns_per_msg", med (fun r -> r.add_ns_per_msg));
    ("onet.batcher.flush_self_ns_per_batch", med (fun r -> r.flush_self_ns_per_batch));
    ("kernel.write_ns_per_kb", med (fun r -> r.write_ns_per_kb));
    ("kernel.read_ns_per_kb", med (fun r -> r.read_ns_per_kb));
    ("message.parse_ns_per_msg", med (fun r -> r.parse_ns_per_msg));
    ("onet.squeue.handoff_ns_per_msg", med (fun r -> r.handoff_ns_per_msg));
    ("telemetry.record_ns", med (fun r -> r.record_ns));
  ]

(* Enough messages for about 4 MB of wire bytes. *)
let msgs_for ~payload = max 2000 (4_000_000 / (payload + Msg.header_size))
