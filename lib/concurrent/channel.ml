exception Closed

type 'a t = {
  cap : int;
  q : 'a Queue.t;
  m : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  mutable closed : bool;
  otrace : Pbca_obs.Trace.t;
  name : string;
}

let create ?(otrace = Pbca_obs.Trace.disabled) ?(name = "chan") ~capacity () =
  if capacity < 1 then invalid_arg "Channel.create: capacity must be >= 1";
  {
    cap = capacity;
    q = Queue.create ();
    m = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
    closed = false;
    otrace;
    name;
  }

let with_lock t f =
  Mutex.lock t.m;
  match f () with
  | v ->
    Mutex.unlock t.m;
    v
  | exception e ->
    Mutex.unlock t.m;
    raise e

(* Block on [cond] until [ready] holds, under [t.m]. When the channel has
   a live trace, each contiguous wait shows up as one [channel]-phase
   span: producer spans mean the consumers are the bottleneck and vice
   versa. *)
let wait_until t cond ready ~span_name =
  if not (ready ()) then begin
    let span =
      if Pbca_obs.Trace.enabled t.otrace then
        Some
          (Pbca_obs.Trace.begin_span t.otrace ~phase:"channel"
             (t.name ^ ":" ^ span_name))
      else None
    in
    while not (ready ()) do
      Condition.wait cond t.m
    done;
    match span with
    | Some sp -> Pbca_obs.Trace.end_span t.otrace sp
    | None -> ()
  end

let push t x =
  Queue.push x t.q;
  Condition.signal t.not_empty

let send t x =
  with_lock t (fun () ->
      if t.closed then raise Closed;
      wait_until t t.not_full
        (fun () -> t.closed || Queue.length t.q < t.cap)
        ~span_name:"send-wait";
      (* closed while we were blocked: the value cannot be delivered *)
      if t.closed then raise Closed;
      push t x)

let try_send t x =
  with_lock t (fun () ->
      if t.closed then raise Closed;
      if Queue.length t.q >= t.cap then false
      else begin
        push t x;
        true
      end)

let recv t =
  with_lock t (fun () ->
      wait_until t t.not_empty
        (fun () -> t.closed || not (Queue.is_empty t.q))
        ~span_name:"recv-wait";
      match Queue.take_opt t.q with
      | Some x ->
        Condition.signal t.not_full;
        Some x
      | None -> None (* closed and drained *))

let close t =
  with_lock t (fun () ->
      if not t.closed then begin
        t.closed <- true;
        (* wake every blocked producer (they raise [Closed]) and every
           blocked consumer (they drain the queue, then return [None]) *)
        Condition.broadcast t.not_empty;
        Condition.broadcast t.not_full
      end)

let length t = with_lock t (fun () -> Queue.length t.q)
