(* Invocation policies for the live exchange path: the paper's Schema
   Enforcement module materializes documents by calling real Web
   services (Sec. 3.1, Fig. 3 steps 19-23), and real services time out,
   crash and flap. This module wraps any [Service.behaviour] (or a whole
   [Execute.invoker]) with per-service policies:

     - bounded retries with exponential backoff + jitter,
     - a wall-clock timeout budget covering all attempts and sleeps,
     - a per-service circuit breaker with half-open probing,

   and keeps per-service counters so batch pipelines can report retry /
   breaker activity. Giving up is reported through the engine's
   structured channel, [Execute.Invocation_failed], which [Execute]
   turns into a typed [Service_error] failure instead of a crash. *)

module Document = Axml_core.Document
module Execute = Axml_core.Execute
module Metrics = Axml_obs.Metrics
module Trace = Axml_obs.Trace

(* ------------------------------------------------------------------ *)
(* Clocks                                                              *)
(* ------------------------------------------------------------------ *)

(* Injectable so tests and benches run deterministically and without
   actually sleeping. *)
type clock = {
  now : unit -> float;
  sleep : float -> unit;
}

let wall_clock = { now = Unix.gettimeofday; sleep = Unix.sleepf }

let manual_clock ?(start = 0.) () =
  let t = ref start in
  { now = (fun () -> !t); sleep = (fun d -> if d > 0. then t := !t +. d) }

(* ------------------------------------------------------------------ *)
(* Policy                                                              *)
(* ------------------------------------------------------------------ *)

type policy = {
  max_retries : int;
  backoff_s : float;
  backoff_factor : float;
  max_backoff_s : float;
  jitter : float;
  timeout_s : float option;
  breaker_threshold : int;
  breaker_cooldown_s : float;
}

let default_policy = {
  max_retries = 2;
  backoff_s = 0.05;
  backoff_factor = 2.0;
  max_backoff_s = 2.0;
  jitter = 0.1;
  timeout_s = None;
  breaker_threshold = 5;
  breaker_cooldown_s = 5.0;
}

let policy ?(max_retries = default_policy.max_retries)
    ?(backoff_s = default_policy.backoff_s)
    ?(backoff_factor = default_policy.backoff_factor)
    ?(max_backoff_s = default_policy.max_backoff_s)
    ?(jitter = default_policy.jitter) ?timeout_s
    ?(breaker_threshold = default_policy.breaker_threshold)
    ?(breaker_cooldown_s = default_policy.breaker_cooldown_s) () =
  if max_retries < 0 then invalid_arg "Resilience.policy: max_retries < 0";
  if breaker_threshold < 1 then
    invalid_arg "Resilience.policy: breaker_threshold < 1";
  { max_retries; backoff_s; backoff_factor; max_backoff_s; jitter; timeout_s;
    breaker_threshold; breaker_cooldown_s }

(* ------------------------------------------------------------------ *)
(* Failure causes                                                      *)
(* ------------------------------------------------------------------ *)

exception Circuit_open of { fname : string; retry_at_s : float }
exception Timed_out of { fname : string; elapsed_s : float; budget_s : float }

let () =
  Printexc.register_printer (function
    | Circuit_open { fname; retry_at_s } ->
      Some
        (Printf.sprintf "circuit breaker open for service %s (retry at t=%.3fs)"
           fname retry_at_s)
    | Timed_out { fname; elapsed_s; budget_s } ->
      Some
        (Printf.sprintf
           "service %s exceeded its timeout budget (%.3fs elapsed, %.3fs \
            allowed)"
           fname elapsed_s budget_s)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

type stats = {
  calls : int;            (* guarded invocations entered *)
  attempts : int;         (* physical behaviour calls *)
  retries : int;          (* attempts beyond the first, per call *)
  successes : int;
  gave_up : int;          (* calls that exhausted their policy *)
  timeouts : int;         (* calls abandoned on budget exhaustion *)
  trips : int;            (* closed/half-open -> open transitions *)
  short_circuited : int;  (* calls rejected by an open breaker *)
}

let zero_stats = {
  calls = 0; attempts = 0; retries = 0; successes = 0; gave_up = 0;
  timeouts = 0; trips = 0; short_circuited = 0;
}

let add_stats a b = {
  calls = a.calls + b.calls;
  attempts = a.attempts + b.attempts;
  retries = a.retries + b.retries;
  successes = a.successes + b.successes;
  gave_up = a.gave_up + b.gave_up;
  timeouts = a.timeouts + b.timeouts;
  trips = a.trips + b.trips;
  short_circuited = a.short_circuited + b.short_circuited;
}

let diff_stats ~before after = {
  calls = after.calls - before.calls;
  attempts = after.attempts - before.attempts;
  retries = after.retries - before.retries;
  successes = after.successes - before.successes;
  gave_up = after.gave_up - before.gave_up;
  timeouts = after.timeouts - before.timeouts;
  trips = after.trips - before.trips;
  short_circuited = after.short_circuited - before.short_circuited;
}

let pp_stats ppf s =
  Fmt.pf ppf
    "calls %d; attempts %d; retries %d; successes %d; gave up %d; timeouts \
     %d; breaker trips %d; short-circuited %d"
    s.calls s.attempts s.retries s.successes s.gave_up s.timeouts s.trips
    s.short_circuited

let stats_to_json s =
  let module Json = Axml_obs.Json in
  Json.Obj
    [ ("calls", Json.Int s.calls); ("attempts", Json.Int s.attempts);
      ("retries", Json.Int s.retries); ("successes", Json.Int s.successes);
      ("gave_up", Json.Int s.gave_up); ("timeouts", Json.Int s.timeouts);
      ("trips", Json.Int s.trips); ("short_circuited", Json.Int s.short_circuited) ]

(* ------------------------------------------------------------------ *)
(* The guard                                                           *)
(* ------------------------------------------------------------------ *)

type breaker = Closed of int (* consecutive failures *) | Open_until of float | Half_open

type breaker_state = [ `Closed | `Open | `Half_open ]

(* Registry children for one guarded service, created once per service
   name; the per-guard [stats] window stays in [st] (the public
   accessors below are views over it), while these feed the
   process-wide registry. *)
type registry_handles = {
  mc_calls : Metrics.counter;
  mc_attempts : Metrics.counter;
  mc_retries : Metrics.counter;
  mc_successes : Metrics.counter;
  mc_gave_up : Metrics.counter;
  mc_timeouts : Metrics.counter;
  mc_trips : Metrics.counter;
  mc_short : Metrics.counter;
  mg_breaker : Metrics.gauge;
}

let registry_handles fname =
  let c help name =
    Metrics.counter ~help ~labels:[ ("service", fname) ] name
  in
  { mc_calls = c "Guarded invocations entered" "axml_resilience_calls_total";
    mc_attempts = c "Physical behaviour calls" "axml_resilience_attempts_total";
    mc_retries = c "Attempts beyond the first" "axml_resilience_retries_total";
    mc_successes = c "Guarded invocations that succeeded" "axml_resilience_successes_total";
    mc_gave_up = c "Calls that exhausted their policy" "axml_resilience_gave_up_total";
    mc_timeouts = c "Calls abandoned on budget exhaustion" "axml_resilience_timeouts_total";
    mc_trips = c "Closed/half-open to open transitions" "axml_resilience_breaker_trips_total";
    mc_short = c "Calls rejected by an open breaker" "axml_resilience_short_circuits_total";
    mg_breaker =
      Metrics.gauge ~help:"Breaker state: 0 closed, 1 half-open, 2 open"
        ~labels:[ ("service", fname ) ] "axml_resilience_breaker_state" }

type entry = {
  e_name : string;
  mutable st : stats;
  mutable breaker : breaker;
  m : registry_handles;
}

type t = {
  pol : policy;
  clock : clock;
  rng : Random.State.t;
  services : (string, entry) Hashtbl.t;
  lock : Mutex.t;
    (* guards [services], every entry's [st]/[breaker], and [rng].
       Behaviour calls and sleeps happen OUTSIDE the lock: only the
       (cheap) bookkeeping transitions are serialized, so a slow
       service on one domain never blocks another domain's guard.
       This is what makes one guard shareable by all the worker
       domains of a parallel pipeline — and why a breaker tripped by
       one domain short-circuits the others. *)
}

let create ?(policy = default_policy) ?(clock = wall_clock) ?(seed = 0x5e51) () =
  { pol = policy; clock; rng = Random.State.make [| seed |];
    services = Hashtbl.create 8; lock = Mutex.create () }

let locked t f = Mutex.protect t.lock f

(* Caller holds [t.lock]. *)
let entry t fname =
  match Hashtbl.find_opt t.services fname with
  | Some e -> e
  | None ->
    let e =
      { e_name = fname; st = zero_stats; breaker = Closed 0;
        m = registry_handles fname }
    in
    Hashtbl.add t.services fname e;
    e

let stats t fname =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.services fname with
  | Some e -> e.st
  | None -> zero_stats

let total t =
  locked t @@ fun () ->
  Hashtbl.fold (fun _ e acc -> add_stats acc e.st) t.services zero_stats

let breaker_state t fname : breaker_state =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.services fname with
  | None | Some { breaker = Closed _; _ } -> `Closed
  | Some ({ breaker = Open_until until; _ } as e) ->
    if t.clock.now () >= until then begin
      (* cooldown elapsed: next call will be the half-open probe *)
      e.breaker <- Half_open;
      `Half_open
    end
    else `Open
  | Some { breaker = Half_open; _ } -> `Half_open

let bump e f = e.st <- f e.st

(* Record a failed attempt on the breaker; returns true when this
   failure trips the circuit open. *)
let breaker_trip t e =
  e.breaker <- Open_until (t.clock.now () +. t.pol.breaker_cooldown_s);
  bump e (fun s -> { s with trips = s.trips + 1 });
  Metrics.inc e.m.mc_trips;
  Metrics.set e.m.mg_breaker 2.;
  if Trace.enabled Trace.default then
    Trace.emit (Breaker { fname = e.e_name; transition = "trip" })

let breaker_fail t e =
  match e.breaker with
  | Half_open ->
    (* the probe failed: straight back to open *)
    breaker_trip t e;
    true
  | Closed n ->
    let n = n + 1 in
    if n >= t.pol.breaker_threshold then begin
      breaker_trip t e;
      true
    end
    else begin
      e.breaker <- Closed n;
      false
    end
  | Open_until _ -> false (* shouldn't attempt while open *)

let breaker_success e =
  (match e.breaker with
   | Closed _ -> ()
   | Half_open | Open_until _ ->
     if Trace.enabled Trace.default then
       Trace.emit (Breaker { fname = e.e_name; transition = "close" }));
  e.breaker <- Closed 0;
  Metrics.set e.m.mg_breaker 0.

(* Caller holds [t.lock] ([t.rng] is guarded state). *)
let jittered t base =
  if t.pol.jitter <= 0. then base
  else
    let spread = base *. t.pol.jitter in
    base +. (Random.State.float t.rng (2. *. spread)) -. spread

(* [guard t ~name behaviour params] runs [behaviour params] under the
   policy. On give-up it raises [Execute.Invocation_failed] so
   [Execute] (or any caller) receives a structured report.

   Locking discipline: every stats bump and breaker transition happens
   in a short [locked] section; the behaviour call and the backoff
   sleep do not hold the lock. [Mutex.protect] releases the lock when
   a section raises, so the give-up raises may happen inside one. *)
let guard t ~name behaviour params =
  let start = t.clock.now () in
  let e =
    locked t @@ fun () ->
    let e = entry t name in
    bump e (fun s -> { s with calls = s.calls + 1 });
    Metrics.inc e.m.mc_calls;
    (* breaker gate *)
    (match e.breaker with
     | Open_until until when t.clock.now () < until ->
       bump e (fun s -> { s with short_circuited = s.short_circuited + 1 });
       Metrics.inc e.m.mc_short;
       if Trace.enabled Trace.default then
         Trace.emit (Breaker { fname = name; transition = "short-circuit" });
       raise
         (Execute.Invocation_failed
            { fname = name; attempts = 0;
              cause = Circuit_open { fname = name; retry_at_s = until } })
     | Open_until _ ->
       e.breaker <- Half_open;
       Metrics.set e.m.mg_breaker 1.;
       if Trace.enabled Trace.default then
         Trace.emit (Breaker { fname = name; transition = "half-open" })
     | Closed _ | Half_open -> ());
    e
  in
  let deadline =
    match t.pol.timeout_s with None -> infinity | Some b -> start +. b
  in
  let over_budget () = t.clock.now () > deadline in
  let give_up ~attempts ~timed_out cause =
    locked t (fun () ->
        bump e (fun s ->
            { s with
              gave_up = s.gave_up + 1;
              timeouts = (if timed_out then s.timeouts + 1 else s.timeouts) }));
    Metrics.inc e.m.mc_gave_up;
    if timed_out then Metrics.inc e.m.mc_timeouts;
    raise (Execute.Invocation_failed { fname = name; attempts; cause })
  in
  let rec attempt n backoff =
    locked t (fun () ->
        bump e (fun s ->
            { s with
              attempts = s.attempts + 1;
              retries = (if n > 1 then s.retries + 1 else s.retries) }));
    Metrics.inc e.m.mc_attempts;
    if n > 1 then Metrics.inc e.m.mc_retries;
    if Trace.enabled Trace.default then
      Trace.emit (Attempt { fname = name; number = n });
    match behaviour params with
    | result ->
      if over_budget () then begin
        (* the call answered too late: the budget is the contract *)
        locked t (fun () -> ignore (breaker_fail t e));
        give_up ~attempts:n ~timed_out:true
          (Timed_out
             { fname = name; elapsed_s = t.clock.now () -. start;
               budget_s = deadline -. start })
      end
      else begin
        locked t (fun () ->
            breaker_success e;
            bump e (fun s -> { s with successes = s.successes + 1 }));
        Metrics.inc e.m.mc_successes;
        result
      end
    | exception ((Stack_overflow | Out_of_memory) as fatal) -> raise fatal
    | exception (Execute.Invocation_failed _ as inner) ->
      (* an already-guarded inner invoker gave up: pass the report on *)
      raise inner
    | exception cause ->
      let tripped = locked t (fun () -> breaker_fail t e) in
      if tripped || n > t.pol.max_retries then
        give_up ~attempts:n ~timed_out:false cause
      else if over_budget () then
        give_up ~attempts:n ~timed_out:true
          (Timed_out
             { fname = name; elapsed_s = t.clock.now () -. start;
               budget_s = deadline -. start })
      else begin
        let pause =
          locked t (fun () ->
              Float.min (jittered t backoff) (deadline -. t.clock.now ()))
        in
        if Trace.enabled Trace.default then
          Trace.emit (Retry { fname = name; attempt = n; backoff_s = Float.max pause 0. });
        if pause > 0. then t.clock.sleep pause;
        if over_budget () then
          give_up ~attempts:n ~timed_out:true
            (Timed_out
               { fname = name; elapsed_s = t.clock.now () -. start;
                 budget_s = deadline -. start })
        else
          attempt (n + 1)
            (Float.min (backoff *. t.pol.backoff_factor) t.pol.max_backoff_s)
      end
  in
  attempt 1 t.pol.backoff_s

let wrap_behaviour t ~name (behaviour : Service.behaviour) : Service.behaviour =
  fun params -> guard t ~name behaviour params

let wrap_invoker t (invoker : Execute.invoker) : Execute.invoker =
  fun name params -> guard t ~name (invoker name) params
