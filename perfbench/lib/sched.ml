(* Seeded open-loop arrival schedule: a Poisson process of [rate]
   messages per second over [duration] seconds, conditioned on carrying
   exactly [round (rate * duration)] arrivals. Conditioned on its count
   a Poisson process is a sorted sample of uniforms, built here from
   n + 1 exponential gaps normalised to the duration. Fixing the count
   keeps the offered load identical across seeds, so only the arrival
   pattern varies with the seed. Offsets are in seconds from the start
   of the schedule, ascending. *)
let poisson ~seed ~rate ~duration =
  let st = Random.State.make [| seed; 0x5eed |] in
  let n = int_of_float (Float.round (rate *. duration)) in
  let gaps =
    Array.init (n + 1) (fun _ -> -.log (1. -. Random.State.float st 1.))
  in
  let total = Array.fold_left ( +. ) 0. gaps in
  let acc = ref 0. in
  Array.init n (fun i ->
      acc := !acc +. gaps.(i);
      duration *. !acc /. total)
