(** Invocation policies for the live exchange path.

    The paper's Schema Enforcement module materializes documents by
    calling real Web services (Sec. 3.1, Fig. 3 steps 19-23) — and real
    services time out, crash and flap. A {!t} wraps any
    {!Service.behaviour} (or a whole [Execute.invoker]) with a
    per-service policy:

    - bounded retries with exponential backoff and jitter;
    - an optional wall-clock timeout budget covering {e all} attempts
      and backoff sleeps of one guarded call;
    - a per-service circuit breaker: after [breaker_threshold]
      consecutive failures the service is short-circuited for
      [breaker_cooldown_s] seconds, then a single half-open probe
      decides between closing the circuit and re-opening it.

    Giving up never raises an unstructured exception: the guard raises
    [Execute.Invocation_failed] carrying the service name, the number of
    physical attempts, and the final cause ({!Circuit_open},
    {!Timed_out}, or the behaviour's own exception). [Execute] turns
    this into a typed [Service_error] failure.

    {b Domain safety.} One guard may be shared by several domains (a
    parallel enforcement pipeline does exactly this): every stats bump
    and breaker transition is serialized behind an internal mutex,
    while behaviour calls and backoff sleeps run outside it. Breaker
    state is therefore global across domains — a circuit tripped by
    one worker short-circuits the others until the cooldown elapses.
    The wrapped behaviour itself must be thread-safe if it touches
    shared mutable state. *)

(** {1 Clocks} *)

type clock = {
  now : unit -> float;
  sleep : float -> unit;
}
(** Injectable time source, so tests and benches are deterministic and
    never actually sleep. *)

val wall_clock : clock
(** [Unix.gettimeofday] / [Unix.sleepf]. *)

val manual_clock : ?start:float -> unit -> clock
(** A virtual clock starting at [start] (default [0.]); [sleep d]
    advances it by [d] instantly. *)

(** {1 Policies} *)

type policy = {
  max_retries : int;        (** extra attempts after the first (default 2) *)
  backoff_s : float;        (** first backoff pause (default 0.05) *)
  backoff_factor : float;   (** backoff growth per retry (default 2.0) *)
  max_backoff_s : float;    (** backoff ceiling (default 2.0) *)
  jitter : float;           (** +/- fraction of each pause (default 0.1) *)
  timeout_s : float option; (** wall-clock budget per guarded call,
                                covering all attempts and sleeps
                                (default [None] = unbounded) *)
  breaker_threshold : int;  (** consecutive failures that trip the
                                breaker (default 5) *)
  breaker_cooldown_s : float; (** open duration before the half-open
                                  probe (default 5.0) *)
}

val default_policy : policy

val policy :
  ?max_retries:int -> ?backoff_s:float -> ?backoff_factor:float ->
  ?max_backoff_s:float -> ?jitter:float -> ?timeout_s:float ->
  ?breaker_threshold:int -> ?breaker_cooldown_s:float -> unit -> policy
(** @raise Invalid_argument when [max_retries < 0] or
    [breaker_threshold < 1]. *)

(** {1 Failure causes}

    Carried as the [cause] of [Execute.Invocation_failed]; both have
    registered [Printexc] printers. *)

exception Circuit_open of { fname : string; retry_at_s : float }
(** The call was rejected without attempting: the breaker is open until
    [retry_at_s] (in the guard's clock). [attempts = 0] in the report. *)

exception Timed_out of { fname : string; elapsed_s : float; budget_s : float }
(** The wall-clock budget ran out — including when the last attempt
    {e succeeded} but answered past the deadline (a late answer on a
    live exchange path is a failure). *)

(** {1 Counters} *)

type stats = {
  calls : int;            (** guarded invocations entered *)
  attempts : int;         (** physical behaviour calls *)
  retries : int;          (** attempts beyond each call's first *)
  successes : int;
  gave_up : int;          (** calls that exhausted their policy *)
  timeouts : int;         (** give-ups caused by budget exhaustion *)
  trips : int;            (** closed/half-open to open transitions *)
  short_circuited : int;  (** calls rejected by an open breaker *)
}

val zero_stats : stats
(** All counters at zero. *)

val add_stats : stats -> stats -> stats
(** Pointwise sum, e.g. to aggregate several services. *)

val diff_stats : before:stats -> stats -> stats
(** Counter deltas: the guard activity between two snapshots. *)

val pp_stats : stats Fmt.t
(** One-line human rendering of the counters. *)

val stats_to_json : stats -> Axml_obs.Json.t
(** The counters as one JSON object, keyed by the field names. *)

(** {1 Guards} *)

type t
(** Shared policy + per-service breakers and counters. *)

val create : ?policy:policy -> ?clock:clock -> ?seed:int -> unit -> t
(** [seed] drives the jitter PRNG (deterministic by default). *)

val guard :
  t -> name:string -> (Axml_core.Document.forest -> Axml_core.Document.forest) ->
  Axml_core.Document.forest -> Axml_core.Document.forest
(** [guard t ~name behaviour params] runs [behaviour params] under the
    policy.
    @raise Axml_core.Execute.Invocation_failed on give-up. *)

val wrap_behaviour : t -> name:string -> Service.behaviour -> Service.behaviour
(** [wrap_behaviour t ~name b] is [b] guarded under [name]'s policy
    and breaker — a drop-in replacement wherever a
    {!Service.behaviour} is expected. *)

val wrap_invoker : t -> Axml_core.Execute.invoker -> Axml_core.Execute.invoker
(** Guards a whole invoker: each function name invoked through it gets
    its own breaker and counters in [t]. This is what
    [Axml_peer.Enforcement] applies when a [resilience] guard is
    configured. *)

(** {1 Introspection} *)

val stats : t -> string -> stats
(** Counters of one service ([zero_stats] if never guarded). *)

val total : t -> stats
(** Sum over all guarded services. *)

type breaker_state = [ `Closed | `Open | `Half_open ]

val breaker_state : t -> string -> breaker_state
(** Current breaker state of a service (consults the clock: an open
    breaker whose cooldown has elapsed reports [`Half_open]). *)
