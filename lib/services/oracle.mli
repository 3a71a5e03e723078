(** Service behaviours for tests, benchmarks and simulations: scripted
    replies, honest random output instances ("the adversary picks any
    output instance of f", Definition 4), and misbehaving services for
    failure injection.

    All built-ins are thread-safe: parallel enforcement pipelines call
    behaviours from several domains concurrently, so the stateful ones
    ({!scripted}, {!flaky}, {!counting}) use atomics and
    {!honest_random} serializes its generator behind a mutex. A
    hand-rolled behaviour used with a parallel pipeline must offer the
    same guarantee. *)

val constant : Axml_core.Document.forest -> Service.behaviour

val scripted : Axml_core.Document.forest list -> Service.behaviour
(** Replies in order, looping back to the start when exhausted.
    @raise Invalid_argument on an empty script. *)

val honest_random :
  ?seed:int -> ?env:Axml_schema.Schema.env -> Axml_schema.Schema.t ->
  string -> Service.behaviour
(** Every call returns a fresh random output instance of the named
    function's declared type. *)

val echo : Service.behaviour

(** {1 Failure injection} *)

val failing : string -> Service.behaviour
(** Raises [Failure] on every call. *)

val flaky : period:int -> Service.behaviour -> Service.behaviour
(** Fails every [period]-th call. *)

val timing_out :
  ?clock:Resilience.clock -> delay_s:float -> Service.behaviour ->
  Service.behaviour
(** Burns [delay_s] on the clock (default {!Resilience.wall_clock})
    before answering like the inner behaviour — for exercising timeout
    budgets; pair with {!Resilience.manual_clock} to avoid real
    sleeps. *)

val scheduled :
  ?clock:Resilience.clock -> ?origin:float ->
  (float * Service.behaviour) list -> Service.behaviour
(** [scheduled entries] follows a fault-injection timeline: each entry
    [(offset_s, b)] makes [b] the active behaviour once the clock passes
    [origin +. offset_s] (sorted internally; [origin] defaults to the
    clock's value at creation). This is how a soak run drives the
    adversarial environment — a service that is honest during warm-up,
    slow during a brownout, dead at its bottom, and honest again for
    recovery — while the {!Resilience} breaker reacts on its own
    schedule.
    @raise Invalid_argument on an empty timeline or one whose earliest
    entry is after offset [0] (the behaviour before the first switch
    point would be undefined). *)

val counting : Service.behaviour -> Service.behaviour * (unit -> int)
(** Count the calls that reach the inner behaviour. *)
