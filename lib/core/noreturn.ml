let known_prefixes = [ "abort"; "panic" ]
let known_exact = [ "exit"; "_exit"; "__stack_chk_fail" ]

let is_known_noreturn name =
  List.mem name known_exact
  || List.exists
       (fun p ->
         String.length name >= String.length p
         && String.sub name 0 (String.length p) = p)
       known_prefixes

let seed_status _g (f : Cfg.func) =
  if is_known_noreturn f.f_name then
    ignore (Atomic.compare_and_set f.f_ret Cfg.Unset Cfg.Noreturn)

let fire_once g (callee : Cfg.func) ~call_end ~fire =
  (* the ft_guard makes "create the call-fall-through for this call site"
     idempotent across the racing parties *)
  if Addr_map.insert_if_absent g.Cfg.ft_guard call_end () then
    fire ~dep:(Atomic.get callee.Cfg.f_ret_dep) ~call_end

let rec drain_waiters g (f : Cfg.func) ~fire =
  let ws = Atomic.exchange f.f_waiters [] in
  List.iter
    (fun w ->
      match w with
      | Cfg.W_fallthrough call_end -> fire_once g f ~call_end ~fire
      | Cfg.W_status caller -> set_returns g caller ~fire)
    ws

and set_returns g (f : Cfg.func) ~fire =
  if Atomic.compare_and_set f.f_ret Cfg.Unset Cfg.Returns then begin
    Atomic.set f.f_ret_dep (Pbca_obs.Trace.capture g.Cfg.trace);
    if g.Cfg.config.Config.eager_noreturn then drain_waiters g f ~fire
  end

let rec push_waiter (f : Cfg.func) w =
  let cur = Atomic.get f.f_waiters in
  if not (Atomic.compare_and_set f.f_waiters cur (w :: cur)) then
    push_waiter f w

let request_fallthrough g ~(callee : Cfg.func) ~call_end ~fire =
  match Atomic.get callee.f_ret with
  | Cfg.Returns -> fire_once g callee ~call_end ~fire
  | Cfg.Noreturn -> ()
  | Cfg.Unset ->
    push_waiter callee (Cfg.W_fallthrough call_end);
    (* recheck: the callee may have transitioned while we registered *)
    if
      Atomic.get callee.f_ret = Cfg.Returns
      && g.Cfg.config.Config.eager_noreturn
    then fire_once g callee ~call_end ~fire

let subscribe_tail_status g ~(caller : Cfg.func) ~(callee : Cfg.func) ~fire =
  match Atomic.get callee.f_ret with
  | Cfg.Returns -> set_returns g caller ~fire
  | Cfg.Noreturn -> ()
  | Cfg.Unset ->
    push_waiter callee (Cfg.W_status caller);
    if
      Atomic.get callee.f_ret = Cfg.Returns
      && g.Cfg.config.Config.eager_noreturn
    then set_returns g caller ~fire

let drain_pending g ~fire =
  let fired = ref false in
  Addr_map.iter
    (fun _ f ->
      if Atomic.get f.Cfg.f_ret = Cfg.Returns && Atomic.get f.Cfg.f_waiters <> []
      then begin
        fired := true;
        drain_waiters g f ~fire
      end)
    g.Cfg.funcs;
  !fired

let resolve_unset g =
  Addr_map.iter
    (fun _ f ->
      ignore (Atomic.compare_and_set f.Cfg.f_ret Cfg.Unset Cfg.Noreturn);
      ignore (Atomic.exchange f.Cfg.f_waiters []))
    g.Cfg.funcs
