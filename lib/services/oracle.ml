(* Service behaviours for tests, benchmarks and simulations:
   scripted replies, honest random output instances ("the adversary picks
   any output instance of f", Definition 4), and misbehaving services for
   failure injection.

   All built-ins are thread-safe — parallel enforcement pipelines call
   behaviours from several domains at once, so the stateful ones keep
   their state in [Atomic]s (or behind a mutex where the state is a
   whole generator). *)

module Schema = Axml_schema.Schema
module Document = Axml_core.Document
module Generate = Axml_core.Generate

(* Always return the same forest. *)
let constant forest : Service.behaviour = fun _params -> forest

(* Return the scripted replies in order; loops back to the start when
   exhausted (real services answer every call). *)
let scripted (replies : Document.forest list) : Service.behaviour =
  if replies = [] then invalid_arg "Oracle.scripted: no replies";
  let replies = Array.of_list replies in
  let n = Array.length replies in
  let i = Atomic.make 0 in
  fun _params ->
    (* wrap in place: an unbounded counter would eventually overflow on
       long benchmark runs. CAS loop so concurrent callers each consume
       a distinct script position. *)
    let rec claim () =
      let cur = Atomic.get i in
      if Atomic.compare_and_set i cur ((cur + 1) mod n) then cur
      else claim ()
    in
    replies.(claim ())

(* An honest random service: every call returns a fresh random output
   instance of [fname]'s declared type. The generator is one mutable
   PRNG stream, so calls are serialized behind a mutex. *)
let honest_random ?(seed = 7) ?env schema fname : Service.behaviour =
  let g = Generate.create ~seed ?env schema in
  let lock = Mutex.create () in
  fun _params ->
    Mutex.protect lock (fun () -> Generate.output_instance g fname)

(* Echo a parameter back (handy for identity-style services). *)
let echo : Service.behaviour = fun params -> params

(* Failure injection. *)
let failing message : Service.behaviour = fun _params -> failwith message

(* Burn [delay_s] of (possibly virtual) time before answering like
   [inner]: exercises wall-clock timeout budgets without real sleeping
   when given a manual clock. *)
let timing_out ?(clock = Resilience.wall_clock) ~delay_s (inner : Service.behaviour) :
    Service.behaviour =
  fun params ->
    clock.Resilience.sleep delay_s;
    inner params

(* A behaviour that follows a timeline: entries [(offset_s, b)] switch
   the active behaviour as the clock passes [origin + offset_s]. This is
   what the soak harness uses to drive brownouts and recoveries — the
   service itself degrades on schedule, and the resilience guard's
   breaker is expected to react. Reading the clock and picking the
   active entry is pure w.r.t. the oracle's own state, so no lock is
   needed; the inner behaviours keep their own thread-safety story. *)
let scheduled ?(clock = Resilience.wall_clock) ?origin entries :
    Service.behaviour =
  if entries = [] then invalid_arg "Oracle.scheduled: empty timeline";
  let entries =
    List.stable_sort (fun (a, _) (b, _) -> compare a b) entries
  in
  (match entries with
   | (t0, _) :: _ when t0 > 0. ->
     invalid_arg "Oracle.scheduled: the timeline must start at offset 0"
   | _ -> ());
  let origin =
    match origin with Some t -> t | None -> clock.Resilience.now ()
  in
  fun params ->
    let elapsed = clock.Resilience.now () -. origin in
    let rec active current = function
      | (t, b) :: rest when t <= elapsed -> active b rest
      | _ -> current
    in
    let b = active (snd (List.hd entries)) (List.tl entries) in
    b params

(* Fails every [period]-th call, otherwise behaves like [inner]. *)
let flaky ~period (inner : Service.behaviour) : Service.behaviour =
  let count = Atomic.make 0 in
  fun params ->
    if (Atomic.fetch_and_add count 1 + 1) mod period = 0 then
      failwith "flaky service failure"
    else inner params

(* Count invocations of [inner] (for side-effect assertions). *)
let counting (inner : Service.behaviour) =
  let count = Atomic.make 0 in
  let behaviour params = Atomic.incr count; inner params in
  (behaviour, fun () -> Atomic.get count)
