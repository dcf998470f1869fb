(** Non-returning function analysis (paper Sections 2.1 and 5.3).

    Every function carries a return status: [Unset] until proven otherwise,
    [Returns] once any of its return points is discovered, [Noreturn] when
    seeded by name matching (exit/abort-style) or left [Unset] at the global
    fixed point (which resolves cyclic dependencies to non-returning, as in
    Meng and Miller's serial analysis).

    The parallel refinement is *eager notification*: the moment a thread
    traversing a function decodes one of its return instructions, the
    function's status flips to [Returns] and every waiting call site is
    released — there is no need to wait for the callee's analysis to finish
    (Section 5.3). Call sites waiting on an [Unset] callee park a waiter on
    the callee; tail-calling callers park a status waiter, since a function
    tail-calling a returning function returns too.

    All transitions are CAS-driven and idempotent; the call-fall-through
    edge of a given call site is created at most once (the graph's
    [ft_guard]). *)

val is_known_noreturn : string -> bool
(** Name matching against known non-returning functions ([exit], [abort*],
    [_exit], [panic*], [__stack_chk_fail]). Deliberately does not know
    [error] — reproducing paper difference 1. *)

val seed_status : Cfg.t -> Cfg.func -> unit
(** Initialize a fresh function's status from its name. *)

val set_returns :
  Cfg.t ->
  Cfg.func ->
  fire:(dep:Pbca_obs.Trace.dep option -> call_end:int -> unit) ->
  unit
(** Flip to [Returns] (no-op unless currently [Unset]) and drain waiters:
    call-fall-through waiters via [fire], tail-call status waiters
    recursively. With [eager_noreturn = false] (ablation), draining is
    deferred to {!drain_pending}. *)

val request_fallthrough :
  Cfg.t ->
  callee:Cfg.func ->
  call_end:int ->
  fire:(dep:Pbca_obs.Trace.dep option -> call_end:int -> unit) ->
  unit
(** Handle a call site: create the fall-through now if the callee returns,
    park a waiter if it is [Unset], do nothing if it is [Noreturn]. *)

val subscribe_tail_status :
  Cfg.t ->
  caller:Cfg.func ->
  callee:Cfg.func ->
  fire:(dep:Pbca_obs.Trace.dep option -> call_end:int -> unit) ->
  unit
(** A tail call from [caller] to [callee]: [caller] returns if [callee]
    does. *)

val drain_pending :
  Cfg.t ->
  fire:(dep:Pbca_obs.Trace.dep option -> call_end:int -> unit) ->
  bool
(** Drain waiters of all [Returns] functions (used between rounds when
    eager notification is disabled). Returns true if anything fired. *)

val resolve_unset : Cfg.t -> unit
(** Global quiescence: every function still [Unset] is non-returning
    (cyclic-dependency rule); pending waiters are discarded. *)
