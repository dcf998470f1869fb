(** Bounded multi-producer / multi-consumer channel.

    The admission queue of the [bserve] daemon: acceptor domains offer
    jobs with {!try_send} (a full queue sheds the request instead of
    queueing latency) and worker domains take them with {!recv} until
    {!close}. One mutex and two condition variables — item rates are
    per-request, so a lock-free ring would buy nothing measurable here.

    Invariants:
    - [send] blocks while the channel holds [capacity] items; [try_send]
      returns [false] instead.
    - [recv] blocks while the channel is empty and open; after {!close} it
      drains the remaining items in FIFO order, then returns [None].
    - [close] wakes every blocked party: blocked producers raise {!Closed}
      (the value was not delivered), blocked consumers drain and finish.
    - Items are delivered exactly once, in FIFO order across any number of
      producers and consumers (single-lock linearization).

    When built with a live {!Pbca_obs.Trace}, each contiguous blocked wait
    is recorded as a ["channel"]-phase span named [name ^ ":send-wait"] or
    [name ^ ":recv-wait"]. *)

type 'a t

exception Closed
(** Raised by [send]/[try_send] on a closed channel — including a [send]
    that was blocked on a full channel when {!close} arrived (the value
    was not delivered). *)

val create :
  ?trace:Pbca_obs.Trace.t -> ?name:string -> capacity:int -> unit -> 'a t
(** [capacity] must be [>= 1]. [name] prefixes the trace span labels. *)

val send : 'a t -> 'a -> unit
(** Blocks while full. @raise Closed if the channel is (or becomes)
    closed before the value is enqueued. *)

val try_send : 'a t -> 'a -> bool
(** [false] when full, without blocking. @raise Closed when closed. *)

val recv : 'a t -> 'a option
(** Blocks while empty and open; [None] once the channel is closed and
    drained. *)

val close : 'a t -> unit
(** Idempotent. Wakes all blocked producers and consumers. *)

val length : 'a t -> int
