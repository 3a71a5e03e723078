(** The soak harness: hold a phase-scheduled adversarial workload
    against a peer, watch it through {!Axml_obs.Metrics} windows, and
    emit a deterministic structural verdict.

    {!run} spawns one closed-loop worker thread per unit of scheduled
    concurrency; each active worker draws documents from its phase's
    {!Mix.stream} and pushes them through the caller-supplied [send]
    callback (typically an {!Axml_net} client talking to a peer served
    by a {e separate process}). A coordinator thread slices the run into
    fixed windows, measuring per-window p50/p99/p999 latency (histogram
    snapshot diffs), throughput, heap high-water marks, breaker states
    and {!Axml_services.Resilience} counter deltas. At the end the
    per-phase aggregates are graded into a {!verdict}: structural checks
    (did the flash crowd move the p99, did the brownout trip a breaker,
    did the breakers recover, did healthy phases stay inside the error
    budget) that are stable across runs for a fixed seed even though raw
    latencies are not. *)

(** {1 Outcomes}

    How one request ended, as classified by the [send] callback. *)

type outcome =
  | Accepted          (** exchange succeeded *)
  | Refused           (** receiver rejected the document (enforcement) *)
  | Overloaded        (** admission control turned the exchange away *)
  | Fault             (** service/enforcement fault (e.g. breaker open) *)
  | Transport_error   (** connection-level failure *)

(** {1 Configuration} *)

type config = {
  schedule : Schedule.t;
  window_s : float;          (** observation window length *)
  error_budget : float;      (** max error rate on non-degraded phases *)
  flash_factor : float;      (** flash p99 must be >= this x steady p99 *)
  recovery_factor : float;   (** recovery p99 must be <= this x steady p99 *)
  steady_phase : string;     (** baseline phase name *)
  flash_phase : string;
  recovery_phase : string;
  services : string list;    (** service names whose breakers to poll *)
}

val config :
  ?window_s:float -> ?error_budget:float -> ?flash_factor:float ->
  ?recovery_factor:float -> ?steady_phase:string -> ?flash_phase:string ->
  ?recovery_phase:string -> ?services:string list -> Schedule.t -> config
(** Defaults: [window_s = 1.0], [error_budget = 0.01],
    [flash_factor = 1.1], [recovery_factor = 10.0], phase names
    ["steady"] / ["flash"] / ["recovery"], [services = []]. *)

(** {1 Reports} *)

type window = {
  w_index : int;
  w_start_s : float;        (** offset from run start *)
  w_end_s : float;
  w_phase : string;         (** phase active at the window midpoint *)
  w_requests : int;
  w_p50 : float;            (** seconds; [nan] on an empty window *)
  w_p99 : float;
  w_p999 : float;
  w_rate : float;           (** requests per second *)
  w_heap_words : int;       (** [Gc.quick_stat] live heap at window end *)
  w_trips : int;            (** breaker trips within the window *)
  w_retries : int;
  w_short_circuited : int;
  w_breakers : (string * Axml_services.Resilience.breaker_state) list;
      (** per-service breaker state at window end *)
}

type phase_summary = {
  s_name : string;
  s_expect_degraded : bool;
  s_requests : int;
  s_outcomes : (string * int) list;  (** outcome label -> count *)
  s_p50 : float;
  s_p99 : float;
  s_p999 : float;
  s_error_rate : float;     (** non-[Accepted] fraction *)
}

type check = {
  check : string;  (** stable check identifier *)
  ok : bool;
  detail : string;
}

type verdict = { pass : bool; checks : check list }

type report = {
  seed : int;
  total_s : float;          (** actual wall-clock run duration *)
  windows : window list;
  phases : phase_summary list;
  resilience : Axml_services.Resilience.stats;
      (** guard counter deltas over the whole run *)
  heap_high_water_words : int;
  verdict : verdict;
}

val report_to_json : report -> Axml_obs.Json.t
(** The full time series + verdict as one JSON object (the BENCH_SOAK
    payload; field meanings are documented in BENCHMARKS.md). Rates and
    quantiles with no data (NaN) or no bound are [null]. *)

(** {1 Running} *)

val run :
  ?registry:Axml_obs.Metrics.t ->
  ?on_window:(window -> unit) ->
  ?env:Axml_schema.Schema.env ->
  config:config ->
  resilience:Axml_services.Resilience.t ->
  schema:Axml_schema.Schema.t ->
  send:(worker:int -> phase:Schedule.phase -> Mix.item -> outcome) ->
  unit -> report
(** Run the schedule to completion. [send] is called concurrently from
    up to [Schedule.max_workers] threads and must be thread-safe; it
    receives the active phase (so it can honour [phase.exchange] churn)
    and classifies each exchange into an {!outcome} — any other
    exception it lets escape aborts the run and re-raises. [resilience]
    is the guard shared with the environment's services: its counters
    and breaker states are what the windows record. [schema] is the
    sender schema documents are generated from. Metrics are registered
    in [registry] (default {!Axml_obs.Metrics.default}) under
    [axml_soak_*]; [on_window] fires after each window is recorded. *)
