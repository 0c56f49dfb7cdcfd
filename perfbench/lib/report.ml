(* What one workload run hands back to the printer. *)

type summary = {
  value : float;  (** the reported figure: a median or a pooled percentile *)
  lo : float;  (** smallest per-trial value *)
  hi : float;  (** largest per-trial value *)
  n : int;  (** samples behind [value] *)
}

(* No samples at all only happens when every trial failed, which the
   run already reports as incorrect. *)
let empty = { value = 0.; lo = 0.; hi = 0.; n = 0 }

let of_trials xs =
  if Array.length xs = 0 then empty
  else
    let lo, hi = Stats.min_max xs in
    { value = Stats.median xs; lo; hi; n = Array.length xs }

(* A percentile over samples pooled across trials, with the spread of
   the same percentile taken trial by trial. *)
let pooled ~p per_trial =
  let per_trial = List.filter (fun xs -> Array.length xs > 0) per_trial in
  if per_trial = [] then empty
  else
    let each = Array.of_list (List.map (fun xs -> Stats.percentile xs p) per_trial) in
    let all = Array.concat per_trial in
    let lo, hi = Stats.min_max each in
    { value = Stats.percentile all p; lo; hi; n = Array.length all }

(* The median of a percentile taken trial by trial; [n] is the
   smallest trial's sample count, the sample behind each percentile. *)
let median_of ~p per_trial =
  let per_trial = List.filter (fun xs -> Array.length xs > 0) per_trial in
  if per_trial = [] then empty
  else
    let each = Array.of_list (List.map (fun xs -> Stats.percentile xs p) per_trial) in
    let lo, hi = Stats.min_max each in
    let n = List.fold_left (fun n xs -> min n (Array.length xs)) max_int per_trial in
    { value = Stats.median each; lo; hi; n }

(* The same summary in another unit or time base. *)
let scale k s = { s with value = s.value *. k; lo = s.lo *. k; hi = s.hi *. k }

let single v = { value = v; lo = v; hi = v; n = 1 }

type t = {
  attempted : int;
  failed : int;
  problems : string list;  (** correctness violations, for the header *)
  e2e : (string * summary) list;
  layers : (string * float) list;
}

(* Peak resident set of this process, from VmHWM. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" Fun.id
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) find in
  float_of_int kb /. 1024.
