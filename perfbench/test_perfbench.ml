open Perfbench

let feq = Alcotest.float 1e-9
let range a b = Array.init (b - a + 1) (fun i -> float_of_int (a + i))

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)

let test_nearest_rank () =
  let xs = range 1 100 in
  Alcotest.check feq "p50 of 1..100" 50. (Stats.percentile xs 50.);
  Alcotest.check feq "p99 of 1..100" 99. (Stats.percentile xs 99.);
  Alcotest.check feq "p100 of 1..100" 100. (Stats.percentile xs 100.);
  Alcotest.check feq "p1 of 1..100" 1. (Stats.percentile xs 1.);
  (* nearest rank never interpolates: ceil(0.5 * 5) = 3rd smallest *)
  Alcotest.check feq "p50 of 5, unsorted" 30.
    (Stats.percentile [| 50.; 10.; 30.; 20.; 40. |] 50.);
  Alcotest.check feq "p99 of 1..1000" 990. (Stats.percentile (range 1 1000) 99.)

let test_supported_percentile () =
  let sp n = Stats.supported_percentile n in
  let opt = Alcotest.(option (float 0.)) in
  Alcotest.check opt "1000 samples: p99 leaves exactly 10" (Some 99.) (sp 1000);
  Alcotest.check opt "999 samples: p99 leaves 9" (Some 95.) (sp 999);
  Alcotest.check opt "10000 samples" (Some 99.9) (sp 10000);
  Alcotest.check opt "20 samples" (Some 50.) (sp 20);
  Alcotest.check opt "5 samples" None (sp 5)

let test_median_iqr () =
  Alcotest.check feq "odd median" 3. (Stats.median [| 5.; 1.; 3. |]);
  Alcotest.check feq "even median" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
  (* the reference values are Python's statistics.quantiles(xs, n=4) *)
  let q xs = Stats.quartiles xs in
  let trip = Alcotest.(triple feq feq feq) in
  Alcotest.check trip "1..4" (1.25, 2.5, 3.75) (q (range 1 4));
  Alcotest.check trip "1..10" (2.75, 5.5, 8.25) (q (range 1 10));
  Alcotest.check trip "two values extrapolate" (0., 3., 6.) (q [| 5.; 1. |]);
  Alcotest.check trip "three values" (1., 2., 3.) (q [| 3.; 1.; 2. |]);
  Alcotest.check feq "iqr share of 1..10" (5.5 /. 5.5) (Stats.iqr_frac (range 1 10));
  Alcotest.check feq "no spread" 0. (Stats.iqr_frac [| 7.; 7.; 7.; 7. |])

(* Pooling lets one trial's tail set the percentile; the median of
   per-trial percentiles does not. *)
let test_trial_summaries () =
  let calm = range 1 100 and tail = Array.append (range 1 95) [| 500.; 500.; 500.; 500.; 500. |] in
  let pooled = Report.pooled ~p:99. [ calm; calm; tail ] in
  let each = Report.median_of ~p:99. [ calm; calm; tail; Array.append calm calm ] in
  Alcotest.check feq "pooled p99 reaches the tail" 500. pooled.value;
  Alcotest.(check int) "pooled n" 300 pooled.n;
  Alcotest.check feq "median of per-trial p99s" 99. each.value;
  Alcotest.check feq "largest per-trial p99" 500. each.hi;
  Alcotest.(check int) "n is the smallest trial" 100 each.n

(* ------------------------------------------------------------------ *)
(* Self time                                                           *)

let test_self_time () =
  let self children = Spans.self_ns ~start:0 ~stop:100 children in
  Alcotest.(check int) "no children" 100 (self []);
  Alcotest.(check int) "disjoint" 70 (self [ (10, 20); (50, 70) ]);
  Alcotest.(check int) "overlapping siblings count once" 70 (self [ (10, 30); (20, 40) ]);
  Alcotest.(check int) "nested child inside child" 70 (self [ (50, 80); (60, 70) ]);
  Alcotest.(check int) "sticking out is clipped" 90 (self [ (90, 120) ]);
  Alcotest.(check int) "entirely outside" 100 (self [ (-20, -10); (100, 130) ]);
  Alcotest.(check int) "touching runs merge" 60 (self [ (10, 20); (20, 30); (30, 50) ]);
  Alcotest.(check int) "covering child" 0 (self [ (-5, 105) ]);
  let full = Spans.create 1 in
  ignore (Spans.add full ~name:"a" ~start:0 ~stop:1 ~trace:0 ());
  Alcotest.(check int) "overflow slot" (-1) (Spans.add full ~name:"b" ~start:0 ~stop:1 ~trace:0 ());
  Alcotest.(check int) "overflow counted" 1 (Spans.dropped full)

(* ------------------------------------------------------------------ *)
(* Seeded inputs                                                       *)

let test_poisson_schedule () =
  let s seed = Sched.poisson ~seed ~rate:300. ~duration:4. in
  let a = s 1 in
  Alcotest.(check int) "count fixed by rate and duration" 1200 (Array.length a);
  Alcotest.(check bool) "same seed, same schedule" true (a = s 1);
  Alcotest.(check bool) "another seed, another schedule" false (a = s 2);
  Alcotest.(check int) "count does not depend on the seed" 1200 (Array.length (s 2));
  Array.iteri
    (fun i t ->
      if t < 0. || t > 4. || (i > 0 && t < a.(i - 1)) then
        Alcotest.failf "offset %d (%g) out of order or range" i t)
    a

let test_payload () =
  let p = Payload.create ~seed:3 ~size:64 in
  let b = Payload.make p ~seq:42 ~stamp:123456789 in
  Alcotest.(check bool) "intact" true (Payload.valid p b ~seq:42);
  Alcotest.(check int) "stamp" 123456789 (Payload.stamp b);
  Alcotest.(check bool) "wrong sequence" false (Payload.valid p b ~seq:43);
  Bytes.set b 40 (Char.chr ((Char.code (Bytes.get b 40) + 1) land 255));
  Alcotest.(check bool) "corrupted body" false (Payload.valid p b ~seq:42);
  let q = Payload.create ~seed:4 ~size:64 in
  Alcotest.(check bool) "other seed's body" false
    (Payload.valid q (Payload.make p ~seq:1 ~stamp:0) ~seq:1)

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json and the binary's output agree                        *)

let bench_json = lazy (Json.parse (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all))

let test_benchmark_json () =
  let j = Lazy.force bench_json in
  let names k = List.map (fun x -> Json.to_str (Json.member "name" x)) (Json.to_list (Json.member k j)) in
  let strs = Alcotest.(list string) in
  Alcotest.check strs "workloads" (List.map fst Defs.workloads) (names "workloads");
  List.iter2
    (fun (w, why) x ->
      Alcotest.(check string) "why" why (Json.to_str (Json.member "why" x));
      if String.length why > 200 then Alcotest.failf "%s: reason longer than 200 characters" w)
    Defs.workloads
    (Json.to_list (Json.member "workloads" j));
  let same k (defs : Defs.metric list) ~bound =
    Alcotest.check strs k (List.map (fun (m : Defs.metric) -> m.name) defs) (names k);
    List.iter2
      (fun (m : Defs.metric) x ->
        Alcotest.(check string) (m.name ^ " unit") m.unit (Json.to_str (Json.member "unit" x));
        Alcotest.(check string) (m.name ^ " better") (Defs.better_string m.better)
          (Json.to_str (Json.member "better" x));
        if bound then
          Alcotest.check feq (m.name ^ " bound") m.bound (Json.to_num (Json.member "bound" x)))
      defs
      (Json.to_list (Json.member k j))
  in
  same "end_to_end" Defs.end_to_end ~bound:true;
  same "per_layer" Defs.per_layer ~bound:false;
  Alcotest.(check (list string)) "paths" [ "perfbench" ]
    (List.map Json.to_str (Json.to_list (Json.member "paths" j)))

(* The result line prints exactly the declared names, so a metric the
   binary computes but BENCHMARK.json lacks (or the reverse) fails
   here rather than in a run. *)
let test_result_line () =
  List.iter
    (fun defs ->
      let values = List.mapi (fun i (m : Defs.metric) -> (m.name, float_of_int i +. 0.5)) defs in
      let line = Json.parse (Defs.result_line ~correct:true ~attempted:3 ~failed:0 defs values) in
      let printed =
        match Json.member "metrics" line with
        | Json.Obj l -> List.map fst l
        | _ -> Alcotest.fail "metrics is not an object"
      in
      Alcotest.(check (list string)) "printed names" (List.map fst values) printed;
      Alcotest.check_raises "a missing metric is refused"
        (Invalid_argument ("Defs.result_line: missing metric " ^ fst (List.hd values)))
        (fun () -> ignore (Defs.result_line ~correct:true ~attempted:1 ~failed:0 defs (List.tl values)));
      Alcotest.check_raises "an undeclared metric is refused"
        (Invalid_argument "Defs.result_line: undeclared metric bogus")
        (fun () ->
          ignore (Defs.result_line ~correct:true ~attempted:1 ~failed:0 defs (("bogus", 1.) :: values))))
    [ Defs.end_to_end; Defs.per_layer ]

let test_agree_verdicts () =
  let v ?floor a b =
    let v, _, _, _ = Agree.judge ?floor ~bound:0.1 a b in
    Agree.verdict_string v
  in
  let tight m = [| m *. 0.99; m; m; m; m *. 1.01 |] in
  Alcotest.(check string) "same medians" "within" (v (tight 100.) (tight 100.));
  Alcotest.(check string) "5% apart" "within" (v (tight 100.) (tight 105.));
  Alcotest.(check string) "20% apart" "OUTSIDE" (v (tight 100.) (tight 80.));
  Alcotest.(check string) "wide spread" "unresolved"
    (v [| 50.; 80.; 100.; 120.; 150. |] (tight 100.));
  Alcotest.(check string) "20% apart, under the floor" "within"
    (v ~floor:0.005 (tight 0.01) (tight 0.012));
  Alcotest.(check string) "beyond the floor" "OUTSIDE"
    (v ~floor:0.005 (tight 0.01) (tight 0.02))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "supported percentile" `Quick test_supported_percentile;
          Alcotest.test_case "median and quartiles" `Quick test_median_iqr;
          Alcotest.test_case "per-trial summaries" `Quick test_trial_summaries;
        ] );
      ("spans", [ Alcotest.test_case "self time" `Quick test_self_time ]);
      ( "inputs",
        [
          Alcotest.test_case "poisson schedule" `Quick test_poisson_schedule;
          Alcotest.test_case "payload" `Quick test_payload;
        ] );
      ( "contract",
        [
          Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json;
          Alcotest.test_case "result line" `Quick test_result_line;
          Alcotest.test_case "agree verdicts" `Quick test_agree_verdicts;
        ] );
    ]
