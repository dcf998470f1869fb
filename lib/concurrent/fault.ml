type mode = Raise | Delay of float | Starve | Crash

type service =
  | Kill_worker of int
  | Torn_reply
  | Stall of float
  | Cache_rot

exception Injected of int
exception Crashed of int

type plan = { ordinals : (int, unit) Hashtbl.t; mode : mode }

(* Process-wide armed state. The ordinal table is built once at arm time and
   only read afterwards, so concurrent [Hashtbl.mem] from worker domains is
   safe. *)
let plan : plan option Atomic.t = Atomic.make None
let counter = Atomic.make 0
let starved_flag = Atomic.make false
let injected = Atomic.make 0

(* Set when a [Crash] ordinal fires inside a worker task. The worker itself
   dies with [Injected] (contained by Task_pool); the master observes the
   flag at the next quiescent point and aborts the whole run with [Crashed],
   simulating a process kill between two journal commits. *)
let crash_flag = Atomic.make (-1)

let disarm () =
  Atomic.set plan None;
  Atomic.set counter 0;
  Atomic.set starved_flag false;
  Atomic.set injected 0;
  Atomic.set crash_flag (-1)

let armed () = Atomic.get plan <> None

let arm_at ordinals mode =
  disarm ();
  let h = Hashtbl.create 8 in
  List.iter (fun o -> Hashtbl.replace h o ()) ordinals;
  Atomic.set plan (Some { ordinals = h; mode })

(* SplitMix64-style stream: the same seed always selects the same ordinals,
   so an injected-fault run is reproducible bit for bit. *)
let splitmix seed =
  let state = ref (Int64.of_int seed) in
  fun () ->
    state := Int64.add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    (* mask into OCaml's non-negative int range: a 63-bit wrap in
       [Int64.to_int] would make [next () mod window] negative, arming
       ordinals that can never fire *)
    Int64.to_int (Int64.logxor z (Int64.shift_right_logical z 31)) land max_int

let pick_ordinals ~next ~n ~window =
  let h = Hashtbl.create 8 in
  let rec pick k =
    if k > 0 then begin
      let o = next () mod window in
      if Hashtbl.mem h o then pick k
      else begin
        Hashtbl.replace h o ();
        pick (k - 1)
      end
    end
  in
  pick (min n window);
  h

let arm ~seed ~n ~window mode =
  if window <= 0 then invalid_arg "Fault.arm: window must be positive";
  let next = splitmix seed in
  let h = pick_ordinals ~next ~n ~window in
  disarm ();
  Atomic.set plan (Some { ordinals = h; mode })

let starved () = Atomic.get starved_flag
let injected_count () = Atomic.get injected

let check_crash () =
  let k = Atomic.get crash_flag in
  if k >= 0 then begin
    Atomic.set crash_flag (-1);
    raise (Crashed k)
  end

(* The injected delay is accounted on the monotonic [Obs.Clock] — the same
   clock every trace span and deadline uses — so a [Delay d] fault shows up
   as >= d of span wall, even when [Unix.sleepf] returns early (EINTR, or a
   wall-clock step under the gettimeofday fallback). Under a frozen fake
   clock the loop degenerates to one plain sleep (the deadline would never
   arrive on the fake timeline). *)
let delay_monotonic d =
  if Pbca_obs.Clock.is_fake () then Unix.sleepf d
  else begin
    let t0 = Pbca_obs.Clock.now () in
    let rec wait () =
      let remaining = d -. Pbca_obs.Clock.elapsed t0 in
      if remaining > 0.0 then begin
        Unix.sleepf remaining;
        wait ()
      end
    in
    wait ()
  end

let on_task () =
  match Atomic.get plan with
  | None -> ()
  | Some p ->
    let k = Atomic.fetch_and_add counter 1 in
    if Hashtbl.mem p.ordinals k then begin
      Atomic.incr injected;
      match p.mode with
      | Raise -> raise (Injected k)
      | Delay d -> delay_monotonic d
      | Starve -> Atomic.set starved_flag true
      | Crash ->
        Atomic.set crash_flag k;
        raise (Injected k)
    end

(* ------------------------------------------------------------------ *)
(* Service-layer fault points (PR8). A second, independent plan keyed by
   request ordinal instead of task ordinal: the bserve daemon draws one
   lookup per admitted work request and suffers the configured fault at
   the service layer (worker kill, torn reply frame, stalled reply,
   cache-artifact rot). Kept separate from the task plan so arming
   service faults never perturbs task scheduling fault tests and vice
   versa. The table is built at arm time and only read afterwards, so
   concurrent reads from acceptor domains are safe. *)

type service_plan = { s_ordinals : (int, service) Hashtbl.t }

let service_plan : service_plan option Atomic.t = Atomic.make None
let service_counter = Atomic.make 0
let service_injected = Atomic.make 0

let disarm_service () =
  Atomic.set service_plan None;
  Atomic.set service_counter 0;
  Atomic.set service_injected 0

let arm_service_at assoc =
  disarm_service ();
  let h = Hashtbl.create 8 in
  List.iter (fun (o, s) -> Hashtbl.replace h o s) assoc;
  Atomic.set service_plan (Some { s_ordinals = h })

let arm_service ~seed ~n ~window services =
  if window <= 0 then invalid_arg "Fault.arm_service: window must be positive";
  if services = [] then
    invalid_arg "Fault.arm_service: services must be non-empty";
  let next = splitmix seed in
  let ordinals = pick_ordinals ~next ~n ~window in
  let nserv = List.length services in
  let h = Hashtbl.create 8 in
  (* iterate ordinals in sorted order so the ordinal -> service pairing is
     a pure function of the seed, not of hashtable iteration order *)
  Hashtbl.fold (fun o () acc -> o :: acc) ordinals []
  |> List.sort compare
  |> List.iter (fun o -> Hashtbl.replace h o (List.nth services (next () mod nserv)));
  disarm_service ();
  Atomic.set service_plan (Some { s_ordinals = h })

let service_next () =
  match Atomic.get service_plan with
  | None -> None
  | Some p -> (
    let k = Atomic.fetch_and_add service_counter 1 in
    match Hashtbl.find_opt p.s_ordinals k with
    | Some s ->
      Atomic.incr service_injected;
      Some s
    | None -> None)

let service_injected_count () = Atomic.get service_injected
