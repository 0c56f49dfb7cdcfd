(* Tests for the discrete-event simulator substrate: heap, rate
   servers, and the simulator itself. *)

module Heap = Iov_dsim.Heap
module Rsrc = Iov_dsim.Rsrc
module Sim = Iov_dsim.Sim

let qtest ?(count = 300) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_basic () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Heap.push h ~time:2. ~seq:0 "b";
  Heap.push h ~time:1. ~seq:1 "a";
  Heap.push h ~time:3. ~seq:2 "c";
  Alcotest.(check int) "size" 3 (Heap.size h);
  (match Heap.peek h with
  | Some (t, _, v) ->
    Alcotest.(check (float 0.)) "peek time" 1. t;
    Alcotest.(check string) "peek value" "a" v
  | None -> Alcotest.fail "peek");
  let order = List.filter_map (fun _ -> Option.map (fun (_, _, v) -> v) (Heap.pop h)) [ 1; 2; 3 ] in
  Alcotest.(check (list string)) "pop order" [ "a"; "b"; "c" ] order;
  Alcotest.(check bool) "drained" true (Heap.pop h = None)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iteri (fun i v -> Heap.push h ~time:5. ~seq:i v) [ "x"; "y"; "z" ];
  let order = List.filter_map (fun _ -> Option.map (fun (_, _, v) -> v) (Heap.pop h)) [ 1; 2; 3 ] in
  Alcotest.(check (list string)) "equal times pop in insertion order"
    [ "x"; "y"; "z" ] order

let heap_props =
  [
    qtest "pops are sorted"
      QCheck.(list_of_size (QCheck.Gen.int_range 0 200) (pair (float_bound_exclusive 1000.) small_nat))
      (fun entries ->
        let h = Heap.create () in
        List.iteri (fun i (t, _) -> Heap.push h ~time:t ~seq:i i) entries;
        let rec drain acc =
          match Heap.pop h with
          | Some (t, _, _) -> drain (t :: acc)
          | None -> List.rev acc
        in
        let times = drain [] in
        List.sort Float.compare times = times);
    qtest "size tracks pushes and pops"
      QCheck.(small_list (float_bound_exclusive 100.))
      (fun ts ->
        let h = Heap.create () in
        List.iteri (fun i t -> Heap.push h ~time:t ~seq:i ()) ts;
        let n = List.length ts in
        Heap.size h = n
        &&
        (ignore (Heap.pop h);
         Heap.size h = Stdlib.max 0 (n - 1)));
  ]

(* Random pushes and removals against a sorted-list model. Times come
   from a handful of values, so most entries tie and the sequence number
   must break ties first in, first out; values are floats, which the
   heap stores boxed. *)
type heap_op = Push of int | Pop | Take

let heap_op_print = function
  | Push t -> Printf.sprintf "push %d" t
  | Pop -> "pop"
  | Take -> "take"

let heap_model_prop =
  qtest ~count:500 "matches a sorted-list model"
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map heap_op_print l))
       QCheck.Gen.(
         list_size (int_range 0 400)
           (frequency [ (3, map (fun t -> Push t) (int_bound 4)); (1, return Pop); (1, return Take) ])))
    (fun ops ->
      let h = Heap.create () and model = ref [] and seq = ref 0 in
      let insert e = List.merge compare [ e ] in
      let step = function
        | Push t ->
          let v = float_of_int !seq /. 4. in
          Heap.push h ~time:(float_of_int t) ~seq:!seq v;
          model := insert (float_of_int t, !seq, v) !model;
          incr seq;
          true
        | Pop -> (
          let got = Heap.pop h in
          match !model with
          | e :: tl ->
            model := tl;
            got = Some e
          | [] -> got = None)
        | Take -> (
          match !model with
          | (t, _, v) :: tl ->
            model := tl;
            let t' = Heap.min_time h in
            t' = t && Heap.take h = v
          | [] -> (
            match Heap.take h with
            | _ -> false
            | exception Invalid_argument _ -> true))
      in
      List.for_all
        (fun op ->
          step op
          && Heap.size h = List.length !model
          && Heap.peek h = (match !model with e :: _ -> Some e | [] -> None))
        ops)

let test_heap_growth () =
  (* far past the initial capacity, in reverse order: every push sifts
     to the root *)
  let h = Heap.create () in
  for i = 999 downto 0 do
    Heap.push h ~time:(float_of_int i) ~seq:(999 - i) i
  done;
  Alcotest.(check int) "size" 1000 (Heap.size h);
  Alcotest.(check (list int)) "ascending" (List.init 1000 Fun.id)
    (List.init 1000 (fun _ -> Heap.take h));
  Alcotest.check_raises "take on empty" (Invalid_argument "Heap.take: empty")
    (fun () -> ignore (Heap.take h))

let test_heap_no_retention () =
  (* a removed value becomes garbage at once, a queued one stays alive;
     removing half, then the rest, covers both the root and the cells
     vacated at the end *)
  let h = Heap.create () in
  let n = 40 in
  let w = Weak.create n in
  for i = 0 to n - 1 do
    let v = ref i in
    Weak.set w i (Some v);
    Heap.push h ~time:(float_of_int (i mod 3)) ~seq:i v
  done;
  let removed = Array.make n false in
  let remove k =
    for j = 1 to k do
      let v =
        if j mod 2 = 0 then Heap.take h
        else match Heap.pop h with Some (_, _, v) -> v | None -> assert false
      in
      removed.(!v) <- true
    done;
    Gc.full_major ();
    Array.iteri
      (fun i r ->
        Alcotest.(check bool) (Printf.sprintf "value %d alive" i) (not r) (Weak.check w i))
      removed
  in
  remove (n / 2);
  remove (n / 2);
  Alcotest.(check bool) "emptied" true (Heap.is_empty h)

(* ------------------------------------------------------------------ *)
(* Rate servers *)

let test_rsrc_basic () =
  let r = Rsrc.create ~rate:100. in
  let s1, f1 = Rsrc.reserve r ~now:0. ~cost:50. in
  Alcotest.(check (float 1e-9)) "starts now" 0. s1;
  Alcotest.(check (float 1e-9)) "takes cost/rate" 0.5 f1;
  let s2, f2 = Rsrc.reserve r ~now:0. ~cost:100. in
  Alcotest.(check (float 1e-9)) "queues behind" 0.5 s2;
  Alcotest.(check (float 1e-9)) "finish" 1.5 f2;
  Alcotest.(check (float 1e-9)) "free_at" 1.5 (Rsrc.free_at r)

let test_rsrc_idle_gap () =
  let r = Rsrc.create ~rate:10. in
  let _ = Rsrc.reserve r ~now:0. ~cost:10. in
  (* idle until t=5, then reserve: starts at 5, not at free_at=1 *)
  let s, f = Rsrc.reserve r ~now:5. ~cost:10. in
  Alcotest.(check (float 1e-9)) "starts at now" 5. s;
  Alcotest.(check (float 1e-9)) "finish" 6. f

let test_rsrc_unconstrained () =
  let r = Rsrc.unconstrained () in
  Alcotest.(check bool) "flag" true (Rsrc.is_unconstrained r);
  let s, f = Rsrc.reserve r ~now:3. ~cost:1e9 in
  Alcotest.(check (float 0.)) "no delay start" 3. s;
  Alcotest.(check (float 0.)) "no delay finish" 3. f

let test_rsrc_set_rate () =
  let r = Rsrc.create ~rate:100. in
  let _ = Rsrc.reserve r ~now:0. ~cost:100. in
  Rsrc.set_rate r 10.;
  let _, f = Rsrc.reserve r ~now:0. ~cost:10. in
  Alcotest.(check (float 1e-9)) "new rate applies" 2. f;
  Alcotest.check_raises "bad rate" (Invalid_argument "Rsrc.set_rate: rate must be positive")
    (fun () -> Rsrc.set_rate r 0.)

let test_rsrc_release () =
  let r = Rsrc.create ~rate:1. in
  let _ = Rsrc.reserve r ~now:0. ~cost:10. in
  Rsrc.release_until r 2.;
  Alcotest.(check (float 0.)) "rolled back" 2. (Rsrc.free_at r)

let rsrc_props =
  [
    qtest "throughput converges to rate"
      QCheck.(pair (float_range 1. 1000.) (int_range 1 100))
      (fun (rate, n) ->
        let r = Rsrc.create ~rate in
        let cost = 7. in
        let finish = ref 0. in
        for _ = 1 to n do
          let _, f = Rsrc.reserve r ~now:0. ~cost in
          finish := f
        done;
        let observed = float_of_int n *. cost /. !finish in
        Float.abs (observed -. rate) /. rate < 1e-6);
  ]

(* ------------------------------------------------------------------ *)
(* Simulator *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Sim.schedule sim ~delay:2. (note "c"));
  ignore (Sim.schedule sim ~delay:1. (note "a"));
  ignore (Sim.schedule sim ~delay:1. (note "b"));
  Sim.run sim;
  Alcotest.(check (list string)) "time then FIFO order" [ "a"; "b"; "c" ]
    (List.rev !log);
  Alcotest.(check (float 0.)) "clock at last event" 2. (Sim.now sim)

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.schedule sim ~delay:1. (fun () -> fired := true) in
  Sim.cancel sim h;
  Alcotest.(check bool) "cancelled flag" true (Sim.cancelled h);
  Sim.run sim;
  Alcotest.(check bool) "did not fire" false !fired

let test_sim_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  ignore (Sim.schedule sim ~delay:1. (fun () -> incr count));
  ignore (Sim.schedule sim ~delay:5. (fun () -> incr count));
  Sim.run sim ~until:3.;
  Alcotest.(check int) "only first fired" 1 !count;
  Alcotest.(check (float 0.)) "clock advanced to until" 3. (Sim.now sim);
  Sim.run sim;
  Alcotest.(check int) "second fires later" 2 !count

let test_sim_nested_scheduling () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Sim.schedule sim ~delay:1. (fun () ->
         log := "outer" :: !log;
         ignore
           (Sim.schedule sim ~delay:0.5 (fun () -> log := "inner" :: !log))));
  Sim.run sim;
  Alcotest.(check (list string)) "nested order" [ "outer"; "inner" ]
    (List.rev !log);
  Alcotest.(check (float 0.)) "final time" 1.5 (Sim.now sim)

let test_sim_every () =
  let sim = Sim.create () in
  let count = ref 0 in
  let h = Sim.every sim ~period:1. (fun () -> incr count) in
  Sim.run sim ~until:5.5;
  Alcotest.(check int) "five periods" 5 !count;
  Sim.cancel sim h;
  ignore (Sim.schedule sim ~delay:10. (fun () -> ()));
  Sim.run sim;
  Alcotest.(check int) "stops after cancel" 5 !count

let test_sim_every_jitter_bounds () =
  let sim = Sim.create ~seed:3 () in
  let times = ref [] in
  let h = Sim.every sim ~period:1. ~jitter:0.2 (fun () -> times := Sim.now sim :: !times) in
  Sim.run sim ~until:50.;
  Sim.cancel sim h;
  let rec gaps = function
    | a :: (b :: _ as tl) -> (a -. b) :: gaps tl
    | _ -> []
  in
  List.iter
    (fun g ->
      if g < 0.8 -. 1e-9 || g > 1.2 +. 1e-9 then
        Alcotest.failf "gap %f outside jitter bounds" g)
    (gaps !times);
  Alcotest.(check bool) "fired often" true (List.length !times >= 40)

let test_sim_determinism () =
  let trace seed =
    let sim = Sim.create ~seed () in
    let log = ref [] in
    ignore
      (Sim.every sim ~period:0.3 ~jitter:0.1 (fun () ->
           log := Sim.now sim :: !log));
    Sim.run sim ~until:10.;
    !log
  in
  Alcotest.(check bool) "same seed, same trace" true (trace 9 = trace 9);
  Alcotest.(check bool) "different seed, different trace" true
    (trace 9 <> trace 10)

let test_sim_max_events () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec reschedule () =
    incr count;
    ignore (Sim.schedule sim ~delay:1. reschedule)
  in
  ignore (Sim.schedule sim ~delay:1. reschedule);
  Sim.run ~max_events:7 sim;
  Alcotest.(check int) "budget respected" 7 !count

let test_sim_validation () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative delay" (Invalid_argument "Sim.schedule: delay")
    (fun () -> ignore (Sim.schedule sim ~delay:(-1.) (fun () -> ())));
  ignore (Sim.schedule sim ~delay:5. (fun () -> ()));
  Sim.run sim;
  Alcotest.check_raises "past time"
    (Invalid_argument "Sim.schedule_at: time in the past") (fun () ->
      ignore (Sim.schedule_at sim ~time:1. (fun () -> ())))

let () =
  Alcotest.run "dsim"
    [
      ( "heap",
        heap_props
        @ [
            Alcotest.test_case "basic order" `Quick test_heap_basic;
            Alcotest.test_case "FIFO on ties" `Quick test_heap_fifo_ties;
            heap_model_prop;
            Alcotest.test_case "growth across capacity" `Quick test_heap_growth;
            Alcotest.test_case "removed values not retained" `Quick
              test_heap_no_retention;
          ] );
      ( "rsrc",
        rsrc_props
        @ [
            Alcotest.test_case "serial reservations" `Quick test_rsrc_basic;
            Alcotest.test_case "idle gaps are lost" `Quick test_rsrc_idle_gap;
            Alcotest.test_case "unconstrained" `Quick test_rsrc_unconstrained;
            Alcotest.test_case "runtime rate change" `Quick test_rsrc_set_rate;
            Alcotest.test_case "release_until" `Quick test_rsrc_release;
          ] );
      ( "sim",
        [
          Alcotest.test_case "event ordering" `Quick test_sim_ordering;
          Alcotest.test_case "cancellation" `Quick test_sim_cancel;
          Alcotest.test_case "run until" `Quick test_sim_until;
          Alcotest.test_case "nested scheduling" `Quick
            test_sim_nested_scheduling;
          Alcotest.test_case "recurring events" `Quick test_sim_every;
          Alcotest.test_case "jitter bounds" `Quick
            test_sim_every_jitter_bounds;
          Alcotest.test_case "seeded determinism" `Quick test_sim_determinism;
          Alcotest.test_case "max_events budget" `Quick test_sim_max_events;
          Alcotest.test_case "argument validation" `Quick test_sim_validation;
        ] );
    ]
