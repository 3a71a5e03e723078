(** Phase schedules for adversarial soak runs: what the environment does
    to the peer, minute by minute.

    A schedule is an ordered list of {e phases}. Each phase fixes the
    offered load (worker count and think time), the document shape
    ({!Mix.t}), the behaviour of the environment's services (the
    {!fault} injected on every declared service for the phase), and
    which exchange agreement is in force (schema churn). The canonical
    {!default} schedule plays the adversarial function player of the
    rewriting games: warm-up → steady state → schema churn → flash
    crowd → brownout (slow, then dead services) → recovery. *)

(** {1 Faults} *)

type fault =
  | Healthy               (** services answer honestly *)
  | Flaky of int          (** every [n]-th call fails *)
  | Slow of float         (** every call burns the given seconds first *)
  | Dead                  (** every call fails *)

(** {1 Phases} *)

type phase = {
  name : string;
  duration_s : float;
  workers : int;         (** closed-loop client concurrency *)
  think_s : float;       (** per-worker pause between requests *)
  mix : Mix.t;
  fault : fault;         (** injected on every service for the phase *)
  exchange : [ `Primary | `Churned ];
      (** which exchange schema the phase's documents are sent under —
          [`Churned] is the mid-run agreement flip *)
  expect_degraded : bool;
      (** the verdict treats latency/error excursions here as the point
          of the phase, not as a regression *)
}

val phase :
  ?workers:int -> ?think_s:float -> ?fault:fault ->
  ?exchange:[ `Primary | `Churned ] -> ?expect_degraded:bool ->
  duration_s:float -> mix:Mix.t -> string -> phase
(** [phase ~duration_s ~mix name] with defaults [workers = 1],
    [think_s = 0.], [fault = Healthy], [exchange = `Primary],
    [expect_degraded = false].
    @raise Invalid_argument when [duration_s <= 0.] or [workers < 1]. *)

(** {1 Schedules} *)

type t = { seed : int; phases : phase list }

val v : ?seed:int -> phase list -> t
(** @raise Invalid_argument on an empty phase list. *)

val total_s : t -> float
(** Sum of the phase durations. *)

val max_workers : t -> int

val phase_at : t -> float -> int * phase
(** [phase_at t elapsed] is the (index, phase) active at [elapsed]
    seconds into the run; past the end it stays on the last phase. *)

val fault_timeline : t -> (float * fault) list
(** One entry per phase: (start offset, fault) — the timeline
    {!Axml_services.Oracle.scheduled} consumes. *)

val default :
  ?seed:int -> ?workers:int -> ?churn:bool -> total_s:float -> unit -> t
(** The canonical adversarial schedule, scaled to [total_s] seconds:

    - [warmup] (10%): [workers] clients, steady mix;
    - [steady] (25%): the baseline window the verdict compares against;
    - [churn] (10%, when [churn], else folded into [steady]): same
      traffic under the churned exchange agreement;
    - [flash] (20%): [4 * workers] (at least 8) clients, no think time,
      {!Mix.flash_crowd} documents;
    - [brownout-slow] (10%): every service burns 50 ms per call;
    - [brownout-dead] (10%): every service fails — the resilience
      breaker is expected to trip;
    - [recovery] (15%): services honest again; breakers must close.
      Marked degraded (the breaker cooldown bleeds into its first
      seconds); the verdict grades it through the dedicated
      recovery-p99 and breakers-recovered checks instead of the error
      budget.

    [workers] defaults to 2. [seed] (default 2003) seeds every stream
    drawn from the schedule. *)
