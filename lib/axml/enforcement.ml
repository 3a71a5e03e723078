(* The Schema Enforcement module (Section 7): the component that sits on
   every peer's communication path and guarantees that exchanged data
   matches the agreed (WSDL_int / exchange) schema. Its three steps:
     (i)   verify that the data conforms to the schema;
     (ii)  if not, try to rewrite it into the required structure —
           safely if it can, optionally falling back to a possible
           rewriting;
     (iii) if this fails, report an error.

   Because the module guards a communication path, the same (s0,
   exchange) pair is enforced against streams of documents. [Pipeline]
   compiles the pair once — validation context + exchange contract —
   and amortizes all static analysis across the stream; the one-shot
   [enforce] is a pipeline of one document. *)

module Schema = Axml_schema.Schema
module Document = Axml_core.Document
module Rewriter = Axml_core.Rewriter
module Contract = Axml_core.Contract
module Execute = Axml_core.Execute
module Resilience = Axml_services.Resilience
module Metrics = Axml_obs.Metrics
module Trace = Axml_obs.Trace

(* Every enforcement, one-shot [enforce] included, goes through
   [Pipeline.run], so the process-wide document counters live here and
   are never double counted. Slot [i] of [m_documents] is outcome [i]
   of a pipeline's tally: conformed, rewritten, rewritten_possible,
   rejected, attempt_failed, fault. *)
let m_documents =
  Array.map
    (fun outcome ->
      Metrics.counter ~help:"Documents enforced, by outcome"
        ~labels:[ ("outcome", outcome) ]
        "axml_enforcement_documents_total")
    [| "conformed"; "rewritten"; "rewritten_possible"; "rejected";
       "attempt_failed"; "fault" |]

let m_invocations =
  Metrics.counter ~help:"Invocations recorded on accepted documents"
    "axml_enforcement_invocations_total"

let h_enforce =
  Metrics.histogram ~help:"Wall-clock seconds to enforce one document"
    "axml_enforcement_seconds"

let m_jobs =
  Metrics.gauge ~help:"Worker domains used by the most recent batch"
    "axml_pipeline_jobs"

let g_enforce_k =
  Metrics.gauge ~help:"Configured rewriting depth k of the most recent enforcement"
    "axml_enforce_k"

(* Registration is idempotent (same name + labels = same child), so
   the dynamic k label can go straight through [Metrics.counter]; the
   registry mutex is only taken on this opt-in path. *)
let m_min_k ~kind ~k =
  Metrics.counter
    ~help:"Documents by minimal rewriting depth (capacity planning)"
    ~labels:[ ("kind", kind); ("k", k) ]
    "axml_enforce_min_k_total"

(* Wall clock for pipeline accounting, called directly so that its
   reading stays an unboxed float. [Sys.time] would report process CPU
   time — blind to service waits and summed across domains. *)
let wall () = Unix.gettimeofday ()

let ns_of_seconds s = int_of_float (s *. 1e9)

type config = {
  k : int;
  fallback_possible : bool;
    (* when the safe rewriting does not exist, attempt a possible one *)
  resilience : Resilience.t option;
    (* retry/timeout/breaker guard around every invocation *)
  jobs : int;
    (* domains [Pipeline.enforce_many] shards a batch across; [<= 1]
       spawns none. Invokers must be thread-safe (see mli). *)
  track_min_k : bool;
    (* per accepted/checked document, also search for the smallest
       depth at which it would enforce (Rewriter.minimal_k) and surface
       the distribution in pipeline stats, axml_enforce_min_k_total and
       trace notes. Off by default: the search costs extra analyses at
       depths below k (cached, but not free). *)
}

let default_config = {
  k = 1;
  fallback_possible = false;
  resilience = None;
  jobs = 1;
  track_min_k = false;
}

type action =
  | Conformed            (* step (i): already an instance, nothing to do *)
  | Rewritten            (* step (ii): safe rewriting *)
  | Rewritten_possible   (* step (ii): possible rewriting that succeeded *)

type report = {
  action : action;
  invocations : Rewriter.located_invocation list;
}

type error =
  | Rejected of Rewriter.failure list       (* step (iii) *)
  | Attempt_failed of Rewriter.failure list (* a possible rewriting failed at run time *)
  | Service_fault of Rewriter.failure list
      (* the environment's fault, not the document's: a service broke its
         contract, crashed past its retry policy, or an engine invariant
         failed — the document may well be rewritable on a healthy path *)

let pp_error ppf = function
  | Rejected fs ->
    Fmt.pf ppf "rejected: %a" Fmt.(list ~sep:(any "; ") Rewriter.pp_failure) fs
  | Attempt_failed fs ->
    Fmt.pf ppf "attempt failed: %a" Fmt.(list ~sep:(any "; ") Rewriter.pp_failure) fs
  | Service_fault fs ->
    Fmt.pf ppf "service fault: %a" Fmt.(list ~sep:(any "; ") Rewriter.pp_failure) fs

(* Tracing sits on the per-document hot path: render symbols with plain
   string operations, not [Fmt] (format interpretation costs ~1 us). *)
let subject_of doc =
  match Document.symbol doc with
  | Axml_schema.Symbol.Label l -> l
  | Axml_schema.Symbol.Fun f -> f ^ "()"
  | Axml_schema.Symbol.Data -> "#data"

(* ------------------------------------------------------------------ *)
(* The compiled path                                                   *)
(* ------------------------------------------------------------------ *)

module Pipeline = struct
  (* Everything computed once per (s0, exchange, config) instead of
     once per document, plus the running tally. Batch workers on other
     domains enforce on this record itself: the contract's counters
     and the tally are atomics, and win-table lookups take no lock. *)
  type t = {
    config : config;  (* [k] is the contract's *)
    contract : Contract.t;
    invoker : Execute.invoker;  (* inside [config.resilience]'s guard *)
    outcomes : int Atomic.t array;  (* documents, by [m_documents] slot *)
    invocations : int Atomic.t;
    elapsed_ns : int Atomic.t;
      (* wall time enforcing, summed by every domain without a lock or
         a boxed float *)
    cache_base : Contract.stats;
    resilience_base : Resilience.stats;
    (* minimal-k bookkeeping, populated only when [config.track_min_k];
       main domain only *)
    min_k : (int, int) Hashtbl.t;  (* minimal safe depth -> documents *)
    mutable min_k_unbounded : int;
      (* documents with no safe depth within [config.k] *)
    mutable min_k_measured : int;
  }

  let contract t = t.contract
  let config t = t.config

  let resilience_total config =
    match config.resilience with
    | Some r -> Resilience.total r
    | None -> Resilience.zero_stats

  let of_contract ?(config = default_config) ~invoker contract =
    (* the caller's record itself when it already agrees on k *)
    let config =
      if config.k = Contract.k contract then config
      else { config with k = Contract.k contract }
    in
    { config;
      contract;
      invoker =
        (match config.resilience with
         | Some r -> Resilience.wrap_invoker r invoker
         | None -> invoker);
      outcomes = Array.init (Array.length m_documents) (fun _ -> Atomic.make 0);
      invocations = Atomic.make 0;
      elapsed_ns = Atomic.make 0;
      cache_base = Contract.stats contract;
      resilience_base = resilience_total config;
      min_k = Hashtbl.create 8;
      min_k_unbounded = 0;
      min_k_measured = 0 }

  let create ?(config = default_config) ?predicate ~s0 ~exchange ~invoker () =
    of_contract ~config ~invoker
      (Contract.create ~k:config.k ?predicate ~s0 ~target:exchange ())

  type min_k_stats = {
    measured : int;
    distribution : (int * int) list;
      (* (minimal safe depth, documents), ascending in depth *)
    unbounded : int;
  }

  type stats = {
    docs : int;
    conformed : int;
    rewritten : int;
    rewritten_possible : int;
    rejected : int;
    attempt_failed : int;
    faults : int;
    invocations : int;
    elapsed_s : float;
    docs_per_s : float;
    cache : Contract.stats;
    cache_hit_rate : float;
    resilience : Resilience.stats;
    min_k : min_k_stats;
  }

  let min_k_snapshot t =
    { measured = t.min_k_measured;
      unbounded = t.min_k_unbounded;
      distribution =
        Hashtbl.fold (fun k n acc -> (k, n) :: acc) t.min_k []
        |> List.sort (fun (a, _) (b, _) -> compare a b) }

  let stats (t : t) =
    let outcome i = Atomic.get t.outcomes.(i) in
    let elapsed = float_of_int (Atomic.get t.elapsed_ns) *. 1e-9 in
    let docs = Array.fold_left (fun n c -> n + Atomic.get c) 0 t.outcomes in
    let cache = Contract.diff_stats ~before:t.cache_base (Contract.stats t.contract) in
    { docs;
      conformed = outcome 0;
      rewritten = outcome 1;
      rewritten_possible = outcome 2;
      rejected = outcome 3;
      attempt_failed = outcome 4;
      faults = outcome 5;
      invocations = Atomic.get t.invocations;
      elapsed_s = elapsed;
      docs_per_s = (if elapsed > 0. then float_of_int docs /. elapsed else 0.);
      cache;
      cache_hit_rate = Contract.hit_rate cache;
      resilience =
        Resilience.diff_stats ~before:t.resilience_base
          (resilience_total t.config);
      min_k = min_k_snapshot t }

  let pp_min_k ppf m =
    if m.measured = 0 then Fmt.string ppf "not tracked"
    else
      Fmt.pf ppf "%d measured (%a%s)" m.measured
        Fmt.(
          list ~sep:(any ", ")
            (fun ppf (k, n) -> Fmt.pf ppf "k=%d: %d" k n))
        m.distribution
        (if m.unbounded > 0 then
           Fmt.str "%sover budget: %d"
             (if m.distribution = [] then "" else ", ")
             m.unbounded
         else "")

  let pp_stats ppf s =
    Fmt.pf ppf
      "%d docs (%d conformed, %d rewritten, %d possible, %d rejected, %d \
       attempt-failed, %d faulted), %d invocations, %.3f s (%.0f docs/s), \
       cache: %a, resilience: %a, min-k: %a"
      s.docs s.conformed s.rewritten s.rewritten_possible s.rejected
      s.attempt_failed s.faults s.invocations s.elapsed_s
      s.docs_per_s Contract.pp_stats s.cache Resilience.pp_stats s.resilience
      pp_min_k s.min_k

  (* Steps (i) and (ii) in one walk: the materializer validates each
     children word through the dense tables as it goes and returns a
     conforming document physically unchanged, which is how [Conformed]
     is classified; step (iii) is the [Error] side. *)
  let steps t (doc : Document.t) : (Document.t * report, error) result =
    let rw = t.contract and invoker = t.invoker in
    match Rewriter.materialize ~mode:Rewriter.Safe rw ~invoker doc with
    | Ok (doc', invs) ->
      if doc' == doc && invs = [] then
        Ok (doc, { action = Conformed; invocations = [] })
      else Ok (doc', { action = Rewritten; invocations = invs })
    | Error safe_failures ->
      let faulty = List.exists Rewriter.failure_is_fault safe_failures in
      if faulty then
        (* a broken service is not evidence the document needs a
           possible rewriting: do not fall back, report the fault *)
        Error (Service_fault safe_failures)
      else if not t.config.fallback_possible then Error (Rejected safe_failures)
      else begin
        match Rewriter.materialize ~mode:Rewriter.Possible rw ~invoker doc with
        | Ok (doc', invs) ->
          Ok (doc', { action = Rewritten_possible; invocations = invs })
        | Error fs ->
          if List.exists Rewriter.failure_is_fault fs then Error (Service_fault fs)
          else
            let runtime =
              List.exists
                (fun f ->
                  match f.Rewriter.reason with
                  | Rewriter.Execution_failed _
                  | Rewriter.Unrewritable_output _ -> true
                  | _ -> false)
                fs
            in
            if runtime then Error (Attempt_failed fs) else Error (Rejected fs)
      end

  (* One outcome: slot [slot] of the tally and of [m_documents], and
     the trace decision, whose [detail] renders the outcome's count. *)
  let count (t : t) doc slot verdict n detail =
    Metrics.inc m_documents.(slot);
    Atomic.incr t.outcomes.(slot);
    if Trace.enabled Trace.default then
      Trace.emit (Decision { subject = subject_of doc; verdict; detail = detail n })

  (* The one classification of a result. Runs on the enforcing domain:
     everything it counts on is atomic. *)
  let classify (t : t) doc = function
    | Ok (_, { action; invocations }) ->
      let n = List.length invocations in
      if n > 0 then Metrics.inc m_invocations ~by:n;
      ignore (Atomic.fetch_and_add t.invocations n);
      (match action with
       | Conformed -> count t doc 0 Trace.Accept n (fun _ -> "already conforms")
       | Rewritten ->
         count t doc 1 Trace.Accept n (fun n ->
             "safely rewritten, " ^ string_of_int n ^ " invocation(s)")
       | Rewritten_possible ->
         count t doc 2 Trace.Accept n (fun n ->
             "possible rewriting succeeded, " ^ string_of_int n
             ^ " invocation(s)"))
    | Error (Rejected fs) ->
      count t doc 3 Trace.Reject (List.length fs) (fun n ->
          string_of_int n ^ " failure(s)")
    | Error (Attempt_failed fs) ->
      count t doc 4 Trace.Reject (List.length fs) (fun n ->
          "possible attempt died at run time (" ^ string_of_int n
          ^ " failure(s))")
    | Error (Service_fault fs) ->
      count t doc 5 Trace.Fault (List.length fs) (fun n ->
          string_of_int n ^ " service failure(s)")

  (* One document through the three steps, timed by one clock pair
     and classified once; its nanoseconds count in [elapsed_s] when
     [timed] (a batch counts its whole call instead). Safe on any
     domain. The span and its closures are built only under a trace
     sink, and the nanoseconds go into an atomic, boxing nothing. *)
  let enforce_timed t doc ~timed =
    let started = wall () in
    let result = steps t doc in
    let seconds = wall () -. started in
    Metrics.observe h_enforce seconds;
    if timed then ignore (Atomic.fetch_and_add t.elapsed_ns (ns_of_seconds seconds));
    classify t doc result;
    result

  let run t doc ~timed =
    Metrics.set g_enforce_k (float_of_int t.config.k);
    if Trace.enabled Trace.default then
      Trace.with_span "enforce"
        ~detail:(fun () -> subject_of doc)
        (fun () -> enforce_timed t doc ~timed)
    else enforce_timed t doc ~timed

  (* The minimal-k search (opt-in): how deep does this document
     actually need the rewriter to go? Every per-word query runs
     over the win tables of its depth, so a stream of similar
     documents pays the sub-k table fills once. Main-domain only — the
     histogram fields are plain mutable state. *)
  let observe_min_k t doc =
    if t.config.track_min_k then begin
      let m = Rewriter.minimal_k t.contract doc in
      t.min_k_measured <- t.min_k_measured + 1;
      let safe_label =
        match m.Rewriter.safe_k with
        | Some k ->
          Hashtbl.replace t.min_k k
            (1 + Option.value ~default:0 (Hashtbl.find_opt t.min_k k));
          string_of_int k
        | None ->
          t.min_k_unbounded <- t.min_k_unbounded + 1;
          "over-budget"
      in
      let possible_label =
        match m.Rewriter.possible_k with
        | Some k -> string_of_int k
        | None -> "over-budget"
      in
      Metrics.inc (m_min_k ~kind:"safe" ~k:safe_label);
      Metrics.inc (m_min_k ~kind:"possible" ~k:possible_label);
      if Trace.enabled Trace.default then
        Trace.emit
          (Note
             ("min-k " ^ subject_of doc ^ ": safe=" ^ safe_label
            ^ " possible=" ^ possible_label))
    end

  let enforce t doc =
    observe_min_k t doc;
    run t doc ~timed:true

  let diff_min_k ~(before : min_k_stats) (after : min_k_stats) =
    { measured = after.measured - before.measured;
      unbounded = after.unbounded - before.unbounded;
      distribution =
        List.filter_map
          (fun (k, n) ->
            let b =
              Option.value ~default:0 (List.assoc_opt k before.distribution)
            in
            if n - b > 0 then Some (k, n - b) else None)
          after.distribution }

  let diff_batch ~(before : stats) (after : stats) =
    let cache = Contract.diff_stats ~before:before.cache after.cache in
    { docs = after.docs - before.docs;
      conformed = after.conformed - before.conformed;
      rewritten = after.rewritten - before.rewritten;
      rewritten_possible = after.rewritten_possible - before.rewritten_possible;
      rejected = after.rejected - before.rejected;
      attempt_failed = after.attempt_failed - before.attempt_failed;
      faults = after.faults - before.faults;
      invocations = after.invocations - before.invocations;
      elapsed_s = after.elapsed_s -. before.elapsed_s;
      docs_per_s =
        (let dt = after.elapsed_s -. before.elapsed_s in
         if dt > 0. then float_of_int (after.docs - before.docs) /. dt else 0.);
      cache;
      cache_hit_rate = Contract.hit_rate cache;
      resilience =
        Resilience.diff_stats ~before:before.resilience after.resilience;
      min_k = diff_min_k ~before:before.min_k after.min_k }

  (* The one batch path, for every [config.jobs]: worker 0 runs on the
     calling domain, workers 1..jobs-1 on fresh domains, all on [t]
     itself; with [jobs <= 1] no domain is spawned. [elapsed_s] covers
     the whole call — workers, the minimal-k search and the assembly. *)
  let enforce_many t docs =
    let before = stats t in
    let started = wall () in
    let docs = Array.of_list docs in
    let n = Array.length docs in
    (* never spawn more domains than there are documents *)
    let jobs = max 1 (min t.config.jobs n) in
    Metrics.set m_jobs (float_of_int jobs);
    let results = Array.make n None in
    (* Chunked work stealing off one atomic cursor: chunks are small
       enough (>= 8 per worker) that an unlucky run of slow documents
       cannot straggle one domain, and claiming is one fetch-and-add. *)
    let chunk = max 1 (n / (jobs * 8)) in
    let cursor = Atomic.make 0 in
    let rec worker () =
      let start = Atomic.fetch_and_add cursor chunk in
      if start < n then begin
        for i = start to min n (start + chunk) - 1 do
          results.(i) <- Some (run t docs.(i) ~timed:false)
        done;
        worker ()
      end
    in
    let spawned = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join spawned;
    (* deterministic in-order assembly: slot [i] belongs to input [i].
       Minimal-k observation happens here on the main domain (the
       contract's k-keyed tables answer most of it). *)
    let results =
      Array.to_list
        (Array.mapi
           (fun i r ->
             match r with
             | Some r ->
               observe_min_k t docs.(i);
               r
             | None -> assert false (* every index below [n] was claimed *))
           results)
    in
    ignore (Atomic.fetch_and_add t.elapsed_ns (ns_of_seconds (wall () -. started)));
    (results, diff_batch ~before (stats t))
end

(* Enforce [exchange] on [doc]: a pipeline of one document. [s0] is the
   local schema (it brings the WSDL declarations of the functions the
   document may embed). *)
let enforce ?config ?predicate ~s0 ~exchange ~invoker doc =
  Pipeline.enforce (Pipeline.create ?config ?predicate ~s0 ~exchange ~invoker ()) doc
