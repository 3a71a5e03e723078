(** Process-wide metrics registry.

    One registry holds a set of {e metric families} — a family is a
    (name, type, help) triple — and each family holds one {e child} per
    distinct label set. Three metric types are supported:

    - {b counters}: monotonically increasing integers ([inc]);
    - {b gauges}: floats that go up and down ([set] / [add]);
    - {b histograms}: cumulative-bucket latency/size distributions
      ([observe] / [time]).

    Registration (creating a family or child) takes a mutex; after that,
    every update is a single [Atomic] operation, so instrumented hot
    paths stay lock-free and the registry is safe to share across
    domains on OCaml 5. Reads ([value] accessors and the exporters) are
    lock-free too and may observe a metric mid-update only in the sense
    of seeing a slightly stale value, never a torn one (a gauge is a
    CAS loop over a float bit pattern; a histogram's sum is an integer
    count of its unit).

    Time is injectable: [time] and every timestamp derive from the
    registry's clock (default [Unix.gettimeofday]), so tests and
    benchmarks can substitute a manual clock with [set_clock].

    Exporters produce the Prometheus text exposition format
    ([to_prometheus]) and a JSON rendering of the same data ([to_json]);
    both order families and children deterministically so exports are
    diffable. *)

(** {1 Registries} *)

type t
(** A metrics registry: a mutable collection of metric families. *)

val create : ?clock:(unit -> float) -> unit -> t
(** [create ()] is a fresh, empty registry. [clock] (seconds, arbitrary
    epoch; default [Unix.gettimeofday]) is used by {!time}. *)

val default : t
(** The process-wide default registry. Library instrumentation
    (contract caches, resilience guards, the enforcement pipeline)
    registers here; [?registry] arguments default to it. *)

val set_clock : t -> (unit -> float) -> unit
(** [set_clock t now] replaces the registry's clock. Affects every
    {!time} call on histograms of [t], including ones created before. *)

val now : t -> float
(** [now t] reads the registry's current clock. *)

(** {1 Labels}

    Labels are [(key, value)] pairs. Keys must match
    [[a-zA-Z_][a-zA-Z0-9_]*]; values are arbitrary strings (escaped on
    export). Label lists are sorted by key at registration, so the
    order given does not matter. Registering the same family name with
    two different metric types, or an invalid metric/label name, raises
    [Invalid_argument]. *)

type labels = (string * string) list

(** {1 Counters} *)

type counter
(** A handle on one counter child (one family + one label set). *)

val counter : ?registry:t -> ?help:string -> ?labels:labels -> string -> counter
(** [counter name] registers (or looks up) the counter family [name] and
    returns the child for [labels] (default: no labels). Idempotent:
    the same name and labels yield a handle on the same underlying
    value. [help] is kept from the first registration. *)

val inc : ?by:int -> counter -> unit
(** [inc c] adds [by] (default 1) atomically. [by] must be [>= 0]:
    counters are monotone; negative increments raise
    [Invalid_argument]. *)

val counter_value : counter -> int
(** Current value — for tests and thin compatibility views. *)

(** {1 Gauges} *)

type gauge
(** A handle on one gauge child. *)

val gauge : ?registry:t -> ?help:string -> ?labels:labels -> string -> gauge
(** Registers (or looks up) a gauge family and returns the child for
    [labels]. Same idempotence rules as {!counter}. *)

val set : gauge -> float -> unit
(** [set g v] stores [v] atomically. *)

val add : gauge -> float -> unit
(** [add g d] adds [d] (possibly negative) with a CAS loop. *)

val gauge_value : gauge -> float
(** Current value. *)

(** {1 Histograms} *)

type histogram
(** A handle on one histogram child: bucket counts, sum and count. *)

val default_buckets : float list
(** Latency-oriented upper bounds in seconds:
    [5us; 25us; 100us; 500us; 2.5ms; 10ms; 50ms; 250ms; 1s]. A [+Inf]
    bucket is always appended implicitly. *)

val histogram :
  ?registry:t -> ?help:string -> ?buckets:float list -> ?labels:labels ->
  string -> histogram
(** Registers (or looks up) a histogram family with the given bucket
    upper bounds (sorted and deduplicated; default {!default_buckets}).
    [buckets] is fixed by the first registration of the family.

    The sum is kept as an integer count of the histogram's unit:
    nanoseconds when [name] ends in [_seconds], whole units (bytes,
    items) otherwise, so each observed value is rounded to that unit.
    A value whose count does not fit an integer (beyond about 4e18
    units, or not finite) is summed as a float instead. *)

val observe : histogram -> float -> unit
(** [observe h v] records [v]: increments the first bucket whose upper
    bound is [>= v] (or the implicit [+Inf] bucket), the total count,
    and adds [v], in the histogram's unit, to the sum — each a single
    atomic update. Inlined at its call, it allocates nothing. *)

val time : histogram -> (unit -> 'a) -> 'a
(** [time h f] runs [f ()] and observes its wall-clock duration in
    seconds, measured with the owning registry's clock. The duration is
    observed even if [f] raises. *)

type histogram_snapshot = {
  buckets : (float * int) list;
      (** [(upper_bound, cumulative_count)] per declared bucket, in
          increasing bound order; the implicit [+Inf] bucket is not
          listed — its cumulative count is [count]. *)
  count : int;  (** Total number of observations. *)
  sum : float;
      (** Sum of all observed values, each rounded to the histogram's
          unit (see {!histogram}). *)
}

val histogram_snapshot : histogram -> histogram_snapshot
(** A consistent-enough snapshot of a histogram child (buckets, count
    and sum are read independently; see the module preamble). *)

(** {2 Windowed views}

    A histogram child accumulates forever; a {e window} is the pointwise
    difference of two snapshots of the same child, taken at the window's
    edges. The soak harness ([Axml_workload.Soak]) builds its per-window
    latency distributions this way. *)

val diff_histogram_snapshot :
  before:histogram_snapshot -> histogram_snapshot -> histogram_snapshot
(** [diff_histogram_snapshot ~before after] is the window of
    observations recorded between the two snapshots: per-bucket
    cumulative counts, total count and sum are subtracted pointwise
    (clamped at zero, in case the reads raced an in-flight update).
    @raise Invalid_argument when the snapshots have different bucket
    layouts — they must come from the same family. *)

val snapshot_quantile : histogram_snapshot -> float -> float
(** [snapshot_quantile snap q] estimates the [q]-quantile (e.g. [0.5],
    [0.99], [0.999]) of the observations in [snap] by linear
    interpolation inside the first bucket whose cumulative count reaches
    [q * count]. The estimate is bounded by the declared bucket bounds: a
    rank landing in the implicit [+Inf] bucket reports the last finite
    bound. [nan] on an empty snapshot.
    @raise Invalid_argument unless [0 <= q <= 1]. *)

(** {1 Export} *)

val to_prometheus : t -> string
(** Renders every family in the Prometheus text exposition format:
    [# HELP] / [# TYPE] preambles, one sample line per child (per
    bucket, plus [_sum] and [_count], for histograms), label values
    escaped per the spec. Families are sorted by name, children by
    label values. *)

val to_json : t -> Json.t
(** The same data as a single JSON object
    [{"metrics": [{"name"; "type"; "help"; "values": [...]}]}]. Counter
    values are JSON integers; gauge values, histogram sums and bucket
    bounds are JSON numbers ([null] when not finite, see {!Json});
    histogram children carry ["count"], ["sum"] and a cumulative
    ["buckets"] array whose last entry has ["le": "+Inf"]. *)
