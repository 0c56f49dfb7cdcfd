(* One clock for every timestamp the benchmark takes: CLOCK_MONOTONIC in
   nanoseconds. All nodes of a socket workload live in one process, so a
   stamp taken by the client can be subtracted from one taken in the
   sink's engine thread. The call neither allocates nor takes a lock. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let s_of_ns ns = float_of_int ns /. 1e9
