external monotonic_s : unit -> float = "pbca_clock_monotonic_s"

(* The one [Unix.gettimeofday] shim in lib/: a portability fallback for
   platforms without CLOCK_MONOTONIC. Readings are latched through a CAS
   max so even a stepping wall clock can never be observed running
   backwards — an NTP step freezes this clock for the duration of the
   step instead of producing negative durations. *)
let floor_cell = Atomic.make neg_infinity

let rec gettimeofday_latched () =
  let t = Unix.gettimeofday () in
  let prev = Atomic.get floor_cell in
  if t >= prev then
    if Atomic.compare_and_set floor_cell prev t then t
    else gettimeofday_latched ()
  else prev

let have_monotonic = monotonic_s () >= 0.0
let real_now () = if have_monotonic then monotonic_s () else gettimeofday_latched ()

type source = Monotonic | Fake of (unit -> float)

(* A single process-wide source: the fake is installed only by tests
   (and restored by [with_fake]), never concurrently with a real run. *)
let source = Atomic.make Monotonic

let now () =
  match Atomic.get source with Monotonic -> real_now () | Fake f -> f ()

let elapsed t0 = now () -. t0
let use_monotonic () = Atomic.set source Monotonic
let is_fake () = match Atomic.get source with Fake _ -> true | Monotonic -> false

let with_fake f body =
  Atomic.set source (Fake f);
  Fun.protect ~finally:use_monotonic body
