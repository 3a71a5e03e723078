(** Span-based decision tracing.

    A {e tracer} turns the decisions taken on an enforcement path —
    spans opened around phases, cache hits, fork choices, invocation
    attempts, retries, breaker transitions, accept/reject/fault
    verdicts — into a stream of structured {!event}s delivered to a
    pluggable {!sink}:

    - {!Null}: events are dropped before they are even built. This is
      the production default; instrumented code guards event
      construction with {!enabled}, so a disabled tracer costs one
      branch per site (bench E19 quantifies it).
    - {!Memory}: events accumulate in a bounded ring {!buffer} that
      keeps the most recent [capacity] events (old ones are
      overwritten). Used by [axml trace] and tests; [axml trace
      --jsonl] writes the retained events with {!event_to_json}, one
      object per line.

    Tracers maintain a current span {e depth} so a renderer can indent
    events under their enclosing span; {!with_span} restores the depth
    even when the traced function raises.

    The tracer is not itself domain-safe (sequence numbers and depth
    are plain mutable fields): confine one tracer to one domain, or
    give each domain its own. The metrics registry ({!Metrics}) is the
    domain-safe half of the observability layer. *)

(** {1 Events} *)

type verdict = Accept | Reject | Fault
(** The terminal verdict of one enforcement: the document conformed or
    was rewritten ([Accept]), no rewriting exists ([Reject]), or the
    environment misbehaved — ill-typed service, retries exhausted
    ([Fault]). *)

(** What happened. [string] payloads are small, human-oriented
    identifiers (service names, cache kinds, span names). *)
type kind =
  | Span_open of { name : string; detail : string }
      (** A phase began ([detail] may be [""]). *)
  | Span_close of { name : string; elapsed_s : float }
      (** The matching phase ended, [elapsed_s] after it opened. *)
  | Cache_query of { cache : string; hit : bool }
      (** A contract word analysis ran ([cache] is ["safe"] or
          ["possible"]); [hit] when it filled no win-table entry. *)
  | Fork_choice of { fname : string; choice : string }
      (** During {!Axml_core.Execute.run}, a fork node for function
          [fname] was resolved by [choice] (["keep"] or ["invoke"]).
          Emitted per {e attempted} branch: a backtracking walk may
          emit both for the same function occurrence. *)
  | Attempt of { fname : string; number : int }
      (** A resilience guard started physical attempt [number]
          (1-based) of a call to [fname]. *)
  | Retry of { fname : string; attempt : int; backoff_s : float }
      (** Attempt [attempt] of [fname] failed; the guard sleeps
          [backoff_s] and retries. *)
  | Breaker of { fname : string; transition : string }
      (** [fname]'s circuit breaker changed state: ["trip"],
          ["short-circuit"], ["half-open"] or ["close"]. *)
  | Invocation of { fname : string; attempts : int; ok : bool }
      (** Final outcome of invoking [fname] ([attempts] physical tries;
          [0] when unknown at this layer). *)
  | Decision of { subject : string; verdict : verdict; detail : string }
      (** The enforcement verdict for [subject] (a document root or a
          peer exchange). *)
  | Note of string  (** Free-form annotation. *)

type event = {
  seq : int;     (** Per-tracer sequence number, from 0. *)
  time_s : float;(** Clock reading at emission. *)
  depth : int;   (** Enclosing-span nesting depth at emission. *)
  kind : kind;
}

(** {1 Ring buffers} *)

type buffer
(** A bounded ring of events: keeps the last [capacity] pushed. *)

val buffer : ?capacity:int -> unit -> buffer
(** [buffer ()] is an empty ring keeping [capacity] (default 4096,
    min 1) events. *)

val buffer_capacity : buffer -> int

val buffer_pushed : buffer -> int
(** Total events ever pushed, including overwritten ones; the number
    dropped is [max 0 (pushed - capacity)]. *)

val buffer_events : buffer -> event list
(** The retained events, oldest first. *)

val buffer_clear : buffer -> unit

(** {1 Sinks and tracers} *)

type sink =
  | Null                  (** Drop everything (production default). *)
  | Memory of buffer      (** Ring-buffer the last N events. *)

type t
(** A tracer: a sink plus clock, sequence and depth state. *)

val create : ?clock:(unit -> float) -> ?sink:sink -> unit -> t
(** A fresh tracer (default: [Unix.gettimeofday], {!Null}). *)

val default : t
(** The process-wide tracer all library instrumentation emits to.
    Starts with the {!Null} sink; [axml trace] swaps in a {!Memory}
    sink around one enforcement. *)

val set_sink : t -> sink -> unit
val sink : t -> sink
val set_clock : t -> (unit -> float) -> unit

val set_clock_every : t -> int -> unit
(** [set_clock_every t n] re-reads the clock every [n] events ([n] is
    rounded up to a power of two; default 32 — see {!emit}). Pass [1]
    for an exact reading on every event, as [axml trace] does when
    replaying a single document interactively. *)

val enabled : t -> bool
(** [true] iff the sink is not {!Null}. Hot paths check this before
    constructing events with non-constant payloads. *)

val emit : ?tracer:t -> kind -> unit
(** [emit kind] stamps [kind] with a clock reading, the next sequence
    number and the current depth, and delivers it to the sink (a no-op
    on {!Null}). Default tracer: {!default}.

    Timestamps are {e amortized}: the clock (1 us resolution for the
    default [Unix.gettimeofday]) is re-read every 32nd event (tunable,
    {!set_clock_every}) and at every span boundary, and intermediate
    events reuse the cached reading — sub-microsecond bursts are indistinguishable either way,
    and this keeps the hot emission path to a few tens of nanoseconds.
    Timestamps remain monotone per tracer. *)

val with_span : ?tracer:t -> ?detail:(unit -> string) -> string -> (unit -> 'a) -> 'a
(** [with_span name f] emits [Span_open] (with [detail ()] if given —
    the thunk is only forced when the tracer is enabled), runs [f] one
    depth level deeper, and emits [Span_close] with the elapsed time,
    also when [f] raises. When the tracer is disabled this is just
    [f ()]. *)

(** {1 Rendering} *)

val pp_verdict : Format.formatter -> verdict -> unit
val pp_kind : Format.formatter -> kind -> unit
(** One-line human rendering of an event kind (no indentation). *)

val event_to_json : event -> Json.t
(** One JSON object, [{"seq";"t";"depth";"event";...kind fields}];
    {!Json.to_string} renders it as one JSONL line. *)
