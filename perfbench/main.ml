(* The end-to-end benchmark.

   One workload, one run:
     main.exe --workload NAME --seed N --seconds S --trace 0|1
   prints a header, a table of every metric with its unit, and, as its
   last line, one JSON object: {"correct", "attempted", "failed",
   "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
   --trace 1 they are the per-layer ones, and the run's spans are
   written to perfbench/out/<workload>.spans.jsonl. A run whose outputs
   fail a correctness check exits 1; bad arguments exit 2.

   Result sets and their agreement:
     main.exe all --out FILE --seconds S [--seeds N] [--first-seed N]
                  [--trace 0|1]
     main.exe agree FILE_A FILE_B *)

open Perfbench

let usage =
  "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
  \       main.exe all --out FILE --seconds S [--seeds N] [--first-seed N] \
   [--trace 0|1]\n\
  \       main.exe agree FILE_A FILE_B"

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      prerr_endline usage;
      exit 2)
    fmt

let out_dir = Filename.concat "perfbench" "out"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let is_socket w = Sockw.shape w <> None

let print_header ~workload ~seed ~seconds ~trace =
  Printf.printf "perfbench %s  seed=%d  seconds=%g  trace=%d\n" workload seed seconds
    (if trace then 1 else 0);
  if is_socket workload then
    print_endline
      "  traffic crosses this host's loopback interface only, not a real link"

let print_e2e (r : Report.t) rss =
  Printf.printf "  %-14s %14s %-6s %14s %14s %9s\n" "metric" "value" "unit" "min" "max" "n";
  List.iter
    (fun (m : Defs.metric) ->
      let s =
        match List.assoc_opt m.name r.e2e with Some s -> s | None -> Report.single rss
      in
      Printf.printf "  %-14s %14.6g %-6s %14.6g %14.6g %9d%s\n" m.name s.value m.unit s.lo
        s.hi s.n
        (if m.name = "lat_p99_ms" && Stats.supported_percentile s.n < Some 99. then
           "  (fewer than 10 samples beyond p99)"
         else ""))
    Defs.end_to_end

let print_layers layers =
  Printf.printf "  %-38s %14s %-6s  %s\n" "per-layer metric" "value" "unit" "should move";
  List.iter
    (fun (m : Defs.metric) ->
      Printf.printf "  %-38s %14.6g %-6s  %s\n" m.name (List.assoc m.name layers) m.unit
        m.moves)
    Defs.per_layer

let run_one ~workload ~seed ~seconds ~trace =
  (* untraced runs record nothing, and their peak_rss_mb must not carry
     the recorder's arrays *)
  let spans = Spans.create (if trace then 200_000 else 0) in
  let r =
    if is_socket workload then Sockw.run ~workload ~seed ~seconds ~trace ~spans
    else Simw.run ~workload ~seed ~seconds ~trace ~spans
  in
  let rss = Report.peak_rss_mb () in
  print_header ~workload ~seed ~seconds ~trace;
  List.iter (fun p -> Printf.printf "  FAIL: %s\n" p) r.problems;
  Printf.printf "  operations attempted %d, failed %d (fail share %g)\n" r.attempted r.failed
    (float_of_int r.failed /. float_of_int (max 1 r.attempted));
  let correct = r.problems = [] && r.failed = 0 in
  let line =
    if trace then begin
      mkdir_p out_dir;
      let path = Filename.concat out_dir (workload ^ ".spans.jsonl") in
      Spans.write_jsonl spans path;
      Printf.printf "  %d spans written to %s (%d dropped)\n" (Spans.length spans) path
        (Spans.dropped spans);
      print_layers r.layers;
      Defs.result_line ~correct ~attempted:r.attempted ~failed:r.failed Defs.per_layer
        r.layers
    end
    else begin
      print_e2e r rss;
      Defs.result_line ~correct ~attempted:r.attempted ~failed:r.failed Defs.end_to_end
        (("peak_rss_mb", rss)
        :: List.map (fun (k, (s : Report.summary)) -> (k, s.value)) r.e2e)
    end
  in
  print_endline line;
  exit (if correct then 0 else 1)

(* Runs every (workload, seed) pair as its own process — peak RSS is
   per process — and appends each result line to [out]. *)
let run_all ~out ~seeds ~first_seed ~seconds ~trace =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 out in
  let exe = Sys.executable_name in
  let bad = ref 0 in
  List.iter
    (fun w ->
      for seed = first_seed to first_seed + seeds - 1 do
        let args =
          [| exe; "--workload"; w; "--seed"; string_of_int seed; "--seconds";
             Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") |]
        in
        let ic = Unix.open_process_args_in exe args in
        let rec read last =
          match input_line ic with
          | l ->
            print_endline l;
            read l
          | exception End_of_file -> last
        in
        let last = read "" in
        (match Unix.close_process_in ic with
        | Unix.WEXITED 0 -> ()
        | _ -> incr bad);
        match Json.parse last with
        | res ->
          Printf.fprintf oc "%s\n%!"
            (Json.to_string
               (Json.Obj
                  [ ("workload", Json.Str w); ("seed", Json.Num (float_of_int seed));
                    ("result", res) ]))
        | exception Json.Error e ->
          incr bad;
          Printf.eprintf "perfbench: %s seed %d printed no result (%s)\n%!" w seed e
      done)
    (List.map fst Defs.workloads);
  close_out oc;
  exit (if !bad = 0 then 0 else 1)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts allowed acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      let k = String.sub k 2 (String.length k - 2) in
      if not (List.mem k allowed) then die "unknown option --%s" k;
      opts allowed ((k, v) :: acc) rest
    | [] -> acc
    | x :: _ -> die "unexpected argument %s" x
  in
  let get o k ~default ~conv =
    match List.assoc_opt k o with
    | None -> (
      match default with Some d -> d | None -> die "missing --%s" k)
    | Some v -> ( match conv v with Some x -> x | None -> die "bad value for --%s: %s" k v)
  in
  let trace_of = function "0" -> Some false | "1" -> Some true | _ -> None in
  let known w = List.mem_assoc w Defs.workloads in
  match args with
  | [ "agree"; a; b ] -> exit (if Agree.report ~path_a:a ~path_b:b then 0 else 1)
  | "all" :: rest ->
    let o = opts [ "out"; "seeds"; "first-seed"; "seconds"; "trace" ] [] rest in
    run_all ~out:(get o "out" ~default:None ~conv:Option.some)
      ~seeds:(get o "seeds" ~default:(Some 10) ~conv:int_of_string_opt)
      ~first_seed:(get o "first-seed" ~default:(Some 1) ~conv:int_of_string_opt)
      ~seconds:(get o "seconds" ~default:None ~conv:float_of_string_opt)
      ~trace:(get o "trace" ~default:(Some false) ~conv:trace_of)
  | _ ->
    let o = opts [ "workload"; "seed"; "seconds"; "trace" ] [] args in
    let workload =
      get o "workload" ~default:None ~conv:(fun w -> if known w then Some w else None)
    in
    let seconds = get o "seconds" ~default:None ~conv:float_of_string_opt in
    if not (seconds > 0.) then die "--seconds must be positive";
    run_one ~workload
      ~seed:(get o "seed" ~default:None ~conv:int_of_string_opt)
      ~seconds
      ~trace:(get o "trace" ~default:(Some false) ~conv:trace_of)
