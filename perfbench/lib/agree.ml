(* Agreement of two result sets of the same commit. A result set is a
   JSONL file of {"workload", "seed", "result"} lines, one per run, as
   the [all] subcommand writes it. For every (end-to-end metric,
   workload) pair the tolerance is the metric's bound times set A's
   median, or the metric's absolute floor where that is larger. The
   verdict is [Within] when the two medians differ by at most the
   tolerance, [Outside] when they differ by more, and [Unresolved] when
   either set's own quartile spread is already wider than the
   tolerance, so the comparison cannot tell. *)

type verdict = Within | Outside | Unresolved

let verdict_string = function
  | Within -> "within"
  | Outside -> "OUTSIDE"
  | Unresolved -> "unresolved"

(* [(workload, metric name -> value)] for each correct run of a file. *)
let load path =
  let ic = open_in path in
  let rec lines acc =
    match input_line ic with
    | "" -> lines acc
    | l -> lines (Json.parse l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let rows = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> lines []) in
  List.map
    (fun row ->
      let res = Json.member "result" row in
      let metrics =
        match Json.member "metrics" res with
        | Json.Obj l -> List.map (fun (k, v) -> (k, Json.to_num (Json.member "value" v))) l
        | _ -> raise (Json.Error "metrics is not an object")
      in
      (Json.to_str (Json.member "workload" row), Json.to_bool (Json.member "correct" res), metrics))
    rows

(* [(verdict, B's median change over A's, wider quartile spread as a
   share of its set's median, tolerance as a share of A's median)]. *)
let judge ?(floor = 0.) ~bound a b =
  let a1, ma, a3 = Stats.quartiles a and b1, mb, b3 = Stats.quartiles b in
  let tol = Float.max (bound *. Float.abs ma) floor in
  let v =
    if Float.max (a3 -. a1) (b3 -. b1) > tol then Unresolved
    else if Float.abs (mb -. ma) <= tol then Within
    else Outside
  in
  let share x = if ma = 0. then 0. else x /. Float.abs ma in
  (v, share (mb -. ma), Float.max (Stats.iqr_frac a) (Stats.iqr_frac b), share tol)

(* Prints one row per pair; returns whether every judged pair agreed
   and every run was correct. *)
let report ~path_a ~path_b =
  let a = load path_a and b = load path_b in
  let ok = ref true in
  List.iter
    (fun (w, correct, _) ->
      if not correct then begin
        ok := false;
        Printf.printf "incorrect run of %s in a result set\n" w
      end)
    (a @ b);
  Printf.printf "%-16s %-12s %12s %12s %12s  %12s %12s %12s  %8s %8s %6s  %s\n"
    "workload" "metric" "A q1" "A median" "A q3" "B q1" "B median" "B q3"
    "B vs A" "spread" "tol" "verdict";
  List.iter
    (fun (w, _) ->
      List.iter
        (fun (m : Defs.metric) ->
          let values set =
            Array.of_list
              (List.filter_map
                 (fun (w', _, ms) -> if w' = w then List.assoc_opt m.name ms else None)
                 set)
          in
          let va = values a and vb = values b in
          if Array.length va > 0 && Array.length vb > 0 then begin
            let v, diff, spread, tol = judge ~floor:m.floor ~bound:m.bound va vb in
            if v = Outside then ok := false;
            let a1, a2, a3 = Stats.quartiles va and b1, b2, b3 = Stats.quartiles vb in
            Printf.printf
              "%-16s %-12s %12.5g %12.5g %12.5g  %12.5g %12.5g %12.5g  %+7.1f%% %7.1f%% %5.0f%%  %s\n"
              w m.name a1 a2 a3 b1 b2 b3 (100. *. diff) (100. *. spread)
              (100. *. tol) (verdict_string v)
          end)
        Defs.end_to_end)
    Defs.workloads;
  !ok
