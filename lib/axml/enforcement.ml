(* The Schema Enforcement module (Section 7): the component that sits on
   every peer's communication path and guarantees that exchanged data
   matches the agreed (WSDL_int / exchange) schema. Its three steps:
     (i)   verify that the data conforms to the schema;
     (ii)  if not, try to rewrite it into the required structure —
           safely if it can, optionally falling back to a possible
           rewriting, optionally pre-firing cheap calls (mixed);
     (iii) if this fails, report an error.

   Because the module guards a communication path, the same (s0,
   exchange) pair is enforced against streams of documents. [Pipeline]
   compiles the pair once — validation context + exchange contract —
   and amortizes all static analysis across the stream; the one-shot
   [enforce] keeps working for single documents. *)

module Schema = Axml_schema.Schema
module Document = Axml_core.Document
module Validate = Axml_core.Validate
module Rewriter = Axml_core.Rewriter
module Contract = Axml_core.Contract
module Execute = Axml_core.Execute
module Resilience = Axml_services.Resilience
module Metrics = Axml_obs.Metrics
module Trace = Axml_obs.Trace
module Diagnostic = Axml_analysis.Diagnostic
module Lint = Axml_analysis.Lint

(* [enforce_compiled] is the single chokepoint every enforcement goes
   through (one-shot [enforce] and [Pipeline] both), so the
   process-wide document counters live here and are never double
   counted. *)
let m_documents outcome =
  Metrics.counter ~help:"Documents enforced, by outcome"
    ~labels:[ ("outcome", outcome) ]
    "axml_enforcement_documents_total"

let m_doc_conformed = m_documents "conformed"
let m_doc_rewritten = m_documents "rewritten"
let m_doc_rewritten_possible = m_documents "rewritten_possible"
let m_doc_rejected = m_documents "rejected"
let m_doc_attempt_failed = m_documents "attempt_failed"
let m_doc_fault = m_documents "fault"
let m_doc_precluded = m_documents "precluded"

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

(* Wall clock for pipeline accounting: the injectable registry clock
   (defaults to [Unix.gettimeofday]). [Sys.time] would report process
   CPU time — blind to service waits and summed across domains. *)
let wall () = Metrics.now Metrics.default

type config = {
  k : int;
  fallback_possible : bool;
    (* when the safe rewriting does not exist, attempt a possible one *)
  eager_calls : (string -> bool) option;
    (* mixed approach: services to invoke up-front (Section 5) *)
  resilience : Resilience.t option;
    (* retry/timeout/breaker guard around every invocation *)
  lint_gate : bool;
    (* refuse statically-doomed work before invoking anything: a
       contract carrying error-level lint diagnostics precludes every
       document; a document whose calls lint at error level is
       precluded individually *)
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
  eager_calls = None;
  resilience = None;
  lint_gate = false;
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
  | Precluded of Diagnostic.t list
      (* the lint gate refused up front: static analysis proved the
         exchange (or this document) can never succeed, so nothing was
         validated or invoked *)

let pp_error ppf = function
  | Rejected fs ->
    Fmt.pf ppf "rejected: %a" Fmt.(list ~sep:(any "; ") Rewriter.pp_failure) fs
  | Attempt_failed fs ->
    Fmt.pf ppf "attempt failed: %a" Fmt.(list ~sep:(any "; ") Rewriter.pp_failure) fs
  | Service_fault fs ->
    Fmt.pf ppf "service fault: %a" Fmt.(list ~sep:(any "; ") Rewriter.pp_failure) fs
  | Precluded ds ->
    Fmt.pf ppf "precluded: %a" Fmt.(list ~sep:(any "; ") Diagnostic.pp) ds

(* ------------------------------------------------------------------ *)
(* The three steps over precompiled artifacts                          *)
(* ------------------------------------------------------------------ *)

(* Everything that can be computed once per (s0, exchange, config)
   instead of once per document. *)
type compiled = {
  c_rewriter : Rewriter.t;
  c_lint : Diagnostic.t list Lazy.t;
    (* contract-level diagnostics, computed once per compiled path on
       first use (lint gate or [Pipeline.lint]), under [c_lint_lock]: a
       systhread forcing a lazy value another thread is still forcing
       gets [CamlinternalLazy.Undefined] *)
  c_lint_lock : Mutex.t;
}

let of_rewriter rw =
  { c_rewriter = rw;
    c_lint = lazy (Lint.lint_contract (Rewriter.contract rw));
    c_lint_lock = Mutex.create () }

let contract_lint c = Mutex.protect c.c_lint_lock (fun () -> Lazy.force c.c_lint)

let compile ?predicate ~config ~s0 ~exchange () =
  of_rewriter
    (Rewriter.create ~k:config.k ?predicate ~s0 ~target:exchange ())

let classify fs =
  (* a fault is the environment's problem, never a verdict on the
     document — report it as such and let the caller retry later *)
  if List.exists Rewriter.failure_is_fault fs then Service_fault fs
  else Rejected fs

(* Tracing sits on the per-document hot path: render symbols with plain
   string operations, not [Fmt] (format interpretation costs ~1 us). *)
let subject_of doc =
  match Document.symbol doc with
  | Axml_schema.Symbol.Label l -> l
  | Axml_schema.Symbol.Fun f -> f ^ "()"
  | Axml_schema.Symbol.Data -> "#data"

(* The lint gate (step (0), optional): refuse statically-doomed work
   before validating or invoking anything. Only error-level findings
   gate — warnings and hints never block an exchange. *)
let gate_errors ~compiled doc =
  let errors ds =
    List.filter (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Error) ds
  in
  match errors (contract_lint compiled) with
  | _ :: _ as ds -> Some ds
  | [] -> (
    match
      errors (Lint.lint_document (Rewriter.contract compiled.c_rewriter) doc)
    with
    | _ :: _ as ds -> Some ds
    | [] -> None)

let enforce_steps ~config ~compiled ~(invoker : Execute.invoker)
    (doc : Document.t) : (Document.t * report, error) result =
  match if config.lint_gate then gate_errors ~compiled doc else None with
  | Some ds -> Error (Precluded ds)
  | None ->
  let rw = compiled.c_rewriter in
  let invoker =
    match config.resilience with
    | Some r -> Resilience.wrap_invoker r invoker
    | None -> invoker
  in
  (* steps (i) and (ii) in one walk: the materializer validates each
     children word through the dense tables as it goes and returns a
     conforming document physically unchanged, which is how [Conformed]
     is classified. *)
  let rewrite doc pre_invocations =
    match Rewriter.materialize ~mode:Rewriter.Safe rw ~invoker doc with
    | Ok (doc', invs) ->
      if doc' == doc && pre_invocations = [] && invs = [] then
        Ok (doc, { action = Conformed; invocations = [] })
      else
        Ok (doc', { action = Rewritten; invocations = pre_invocations @ invs })
    | Error safe_failures ->
      let faulty = List.exists Rewriter.failure_is_fault safe_failures in
      if faulty then
        (* a broken service is not evidence the document needs a possible
           rewriting: do not fall back, report the fault *)
        Error (Service_fault safe_failures)
      else if not config.fallback_possible then Error (Rejected safe_failures)
      else begin
        match Rewriter.materialize ~mode:Rewriter.Possible rw ~invoker doc with
        | Ok (doc', invs) ->
          Ok (doc',
              { action = Rewritten_possible;
                invocations = pre_invocations @ invs })
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
  in
  match config.eager_calls with
  | None -> rewrite doc []
  | Some _ when Validate.document_conforms (Contract.ctx rw) doc ->
    (* eager calls hit real services: never fire them on an instance *)
    Ok (doc, { action = Conformed; invocations = [] })
  | Some eager ->
    (* mixed approach (Section 5): pre-fire the eager calls, then the
       same walk *)
    (match Rewriter.pre_materialize rw ~eager_calls:eager ~invoker doc with
     | Ok (doc', pre_invocations) -> rewrite doc' pre_invocations
     | Error f -> Error (classify [ f ]))

let enforce_compiled ~config ~compiled ~(invoker : Execute.invoker)
    (doc : Document.t) : (Document.t * report, error) result =
  Metrics.set g_enforce_k (float_of_int config.k);
  let subject () = subject_of doc in
  let result =
    Trace.with_span "enforce" ~detail:subject @@ fun () ->
    let result =
      Metrics.time h_enforce (fun () ->
          enforce_steps ~config ~compiled ~invoker doc)
    in
    (match result with
     | Ok (_, report) ->
       (match report.action with
        | Conformed -> Metrics.inc m_doc_conformed
        | Rewritten -> Metrics.inc m_doc_rewritten
        | Rewritten_possible -> Metrics.inc m_doc_rewritten_possible);
       Metrics.inc m_invocations ~by:(List.length report.invocations)
     | Error (Rejected _) -> Metrics.inc m_doc_rejected
     | Error (Attempt_failed _) -> Metrics.inc m_doc_attempt_failed
     | Error (Service_fault _) -> Metrics.inc m_doc_fault
     | Error (Precluded _) -> Metrics.inc m_doc_precluded);
    if Trace.enabled Trace.default then begin
      let verdict, detail =
        match result with
        | Ok (_, { action = Conformed; _ }) ->
          (Trace.Accept, "already conforms")
        | Ok (_, { action = Rewritten; invocations }) ->
          (Trace.Accept,
           "safely rewritten, "
           ^ string_of_int (List.length invocations)
           ^ " invocation(s)")
        | Ok (_, { action = Rewritten_possible; invocations }) ->
          (Trace.Accept,
           "possible rewriting succeeded, "
           ^ string_of_int (List.length invocations)
           ^ " invocation(s)")
        | Error (Rejected fs) ->
          (Trace.Reject, string_of_int (List.length fs) ^ " failure(s)")
        | Error (Attempt_failed fs) ->
          (Trace.Reject,
           "possible attempt died at run time ("
           ^ string_of_int (List.length fs)
           ^ " failure(s))")
        | Error (Service_fault fs) ->
          (Trace.Fault,
           string_of_int (List.length fs) ^ " service failure(s)")
        | Error (Precluded ds) ->
          (Trace.Reject,
           "statically precluded ("
           ^ string_of_int (List.length ds)
           ^ " lint error(s))")
      in
      Trace.emit (Decision { subject = subject (); verdict; detail })
    end;
    result
  in
  result

(* Enforce [exchange] on [doc]. [s0] is the local schema (it brings the
   WSDL declarations of the functions the document may embed). *)
let enforce ?(config = default_config) ?predicate ~s0 ~exchange
    ~(invoker : Execute.invoker) (doc : Document.t) :
    (Document.t * report, error) result =
  enforce_compiled ~config
    ~compiled:(compile ?predicate ~config ~s0 ~exchange ())
    ~invoker doc

(* ------------------------------------------------------------------ *)
(* Batch enforcement over document streams                             *)
(* ------------------------------------------------------------------ *)

module Pipeline = struct
  type t = {
    p_config : config;
    p_compiled : compiled;
    p_invoker : Execute.invoker;
    mutable p_clones : compiled array;
      (* per-worker-domain compiled artifacts for parallel batches
         (worker 0 reuses [p_compiled]); grown on demand, kept across
         batches *)
    mutable p_docs : int;
    mutable p_conformed : int;
    mutable p_rewritten : int;
    mutable p_rewritten_possible : int;
    mutable p_rejected : int;
    mutable p_attempt_failed : int;
    mutable p_faults : int;
    mutable p_precluded : int;
    mutable p_invocations : int;
    mutable p_elapsed : float;
    mutable p_cache_base : Contract.stats;
    mutable p_resilience_base : Resilience.stats;
    (* minimal-k bookkeeping, populated only when [config.track_min_k] *)
    p_min_k : (int, int) Hashtbl.t;  (* minimal safe depth -> documents *)
    mutable p_min_k_unbounded : int;
      (* documents with no safe depth within [config.k] *)
    mutable p_min_k_measured : int;
  }

  let contract t = Rewriter.contract t.p_compiled.c_rewriter
  let rewriter t = t.p_compiled.c_rewriter
  let config t = t.p_config
  let lint t = contract_lint t.p_compiled

  let resilience_total config =
    match config.resilience with
    | Some r -> Resilience.total r
    | None -> Resilience.zero_stats

  (* The shared contract's counters plus every clone's: the batch-level
     cache view a parallel pipeline reports. Clones are born with
     zeroed counters, so growing the pool mid-window never perturbs a
     running [diff_stats] window. *)
  let cache_total t =
    Array.fold_left
      (fun acc c ->
        Contract.add_stats acc (Contract.stats (Rewriter.contract c.c_rewriter)))
      (Contract.stats (contract t))
      t.p_clones

  let make ~config ~compiled ~invoker =
    { p_config = config;
      p_compiled = compiled;
      p_invoker = invoker;
      p_clones = [||];
      p_docs = 0; p_conformed = 0; p_rewritten = 0; p_rewritten_possible = 0;
      p_rejected = 0; p_attempt_failed = 0; p_faults = 0; p_precluded = 0;
      p_invocations = 0;
      p_elapsed = 0.;
      p_cache_base = Contract.stats (Rewriter.contract compiled.c_rewriter);
      p_resilience_base = resilience_total config;
      p_min_k = Hashtbl.create 8;
      p_min_k_unbounded = 0;
      p_min_k_measured = 0 }

  let create ?(config = default_config) ?predicate ~s0 ~exchange ~invoker () =
    make ~config ~compiled:(compile ?predicate ~config ~s0 ~exchange ()) ~invoker

  (* [config.k] is ignored here: the contract fixes it. *)
  let of_contract ?(config = default_config) ~invoker contract =
    make ~config
      ~compiled:(of_rewriter (Rewriter.of_contract contract))
      ~invoker

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
    precluded : int;
    invocations : int;
    elapsed_s : float;
    docs_per_s : float;
    cache : Contract.stats;
    cache_hit_rate : float;
    resilience : Resilience.stats;
    min_k : min_k_stats;
  }

  let min_k_snapshot t =
    { measured = t.p_min_k_measured;
      unbounded = t.p_min_k_unbounded;
      distribution =
        Hashtbl.fold (fun k n acc -> (k, n) :: acc) t.p_min_k []
        |> List.sort (fun (a, _) (b, _) -> compare a b) }

  let stats (t : t) =
    let cache = Contract.diff_stats ~before:t.p_cache_base (cache_total t) in
    { docs = t.p_docs;
      conformed = t.p_conformed;
      rewritten = t.p_rewritten;
      rewritten_possible = t.p_rewritten_possible;
      rejected = t.p_rejected;
      attempt_failed = t.p_attempt_failed;
      faults = t.p_faults;
      precluded = t.p_precluded;
      invocations = t.p_invocations;
      elapsed_s = t.p_elapsed;
      docs_per_s =
        (if t.p_elapsed > 0. then float_of_int t.p_docs /. t.p_elapsed else 0.);
      cache;
      cache_hit_rate = Contract.hit_rate cache;
      resilience =
        Resilience.diff_stats ~before:t.p_resilience_base
          (resilience_total t.p_config);
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
       attempt-failed, %d faulted, %d precluded), %d invocations, %.3f s \
       (%.0f docs/s), cache: %a, resilience: %a, min-k: %a"
      s.docs s.conformed s.rewritten s.rewritten_possible s.rejected
      s.attempt_failed s.faults s.precluded s.invocations s.elapsed_s
      s.docs_per_s Contract.pp_stats s.cache Resilience.pp_stats s.resilience
      pp_min_k s.min_k

  (* Outcome bookkeeping shared by [enforce] and [enforce_many]. Only
     the main domain tallies: batch workers hand their results back
     first, so these plain mutable fields never race. *)
  let tally t result =
    t.p_docs <- t.p_docs + 1;
    (match result with
     | Ok (_, (report : report)) ->
       t.p_invocations <- t.p_invocations + List.length report.invocations;
       (match report.action with
        | Conformed -> t.p_conformed <- t.p_conformed + 1
        | Rewritten -> t.p_rewritten <- t.p_rewritten + 1
        | Rewritten_possible ->
          t.p_rewritten_possible <- t.p_rewritten_possible + 1)
     | Error (Rejected _) -> t.p_rejected <- t.p_rejected + 1
     | Error (Attempt_failed _) -> t.p_attempt_failed <- t.p_attempt_failed + 1
     | Error (Service_fault _) -> t.p_faults <- t.p_faults + 1
     | Error (Precluded _) -> t.p_precluded <- t.p_precluded + 1)

  let record t started result =
    t.p_elapsed <- t.p_elapsed +. (wall () -. started);
    tally t result;
    result

  (* The minimal-k search (opt-in): how deep does this document
     actually need the rewriter to go? Every per-word query runs
     over the win tables of its depth, so a stream of similar
     documents pays the sub-k table fills once. Main-domain only — the
     histogram fields are plain mutable state. *)
  let observe_min_k t doc =
    if t.p_config.track_min_k then begin
      let m =
        Rewriter.minimal_k ~max_k:t.p_config.k (rewriter t) doc
      in
      t.p_min_k_measured <- t.p_min_k_measured + 1;
      let safe_label =
        match m.Rewriter.safe_k with
        | Some k ->
          Hashtbl.replace t.p_min_k k
            (1 + Option.value ~default:0 (Hashtbl.find_opt t.p_min_k k));
          string_of_int k
        | None ->
          t.p_min_k_unbounded <- t.p_min_k_unbounded + 1;
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
    let started = wall () in
    observe_min_k t doc;
    record t started
      (enforce_compiled ~config:t.p_config ~compiled:t.p_compiled
         ~invoker:t.p_invoker doc)

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
      precluded = after.precluded - before.precluded;
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

  (* Grow the clone pool to at least [n] compiled artifacts. Each clone
     shares the compiled schemas and the win tables but owns its
     counters and its lazily built contract lint, so a worker domain
     never forces or counts on state another domain reads (see
     DESIGN.md). *)
  let ensure_clones t n =
    let have = Array.length t.p_clones in
    if n > have then
      t.p_clones <-
        Array.append t.p_clones
          (Array.init (n - have) (fun _ ->
               of_rewriter (Rewriter.of_contract (Contract.clone (contract t)))))

  (* The one batch path, for every [config.jobs]: worker 0 runs on the
     calling domain with the shared compiled artifacts, workers
     1..jobs-1 on fresh domains with their own clone; with [jobs <= 1]
     no domain is spawned. [elapsed_s] covers the whole call — workers,
     the minimal-k search and the tally. *)
  let enforce_many t docs =
    let before = stats t in
    let started = wall () in
    let docs = Array.of_list docs in
    let n = Array.length docs in
    (* never spawn more domains than there are documents *)
    let jobs = max 1 (min t.p_config.jobs n) in
    Metrics.set m_jobs (float_of_int jobs);
    ensure_clones t (jobs - 1);
    let results = Array.make n None in
    (* Chunked work stealing off one atomic cursor: chunks are small
       enough (>= 8 per worker) that an unlucky run of slow documents
       cannot straggle one domain, and claiming is one fetch-and-add. *)
    let chunk = max 1 (n / (jobs * 8)) in
    let cursor = Atomic.make 0 in
    let worker compiled () =
      let rec loop () =
        let start = Atomic.fetch_and_add cursor chunk in
        if start < n then begin
          let stop = min n (start + chunk) in
          for i = start to stop - 1 do
            results.(i) <-
              Some
                (enforce_compiled ~config:t.p_config ~compiled
                   ~invoker:t.p_invoker docs.(i))
          done;
          loop ()
        end
      in
      loop ()
    in
    let spawned =
      Array.init (jobs - 1) (fun i -> Domain.spawn (worker t.p_clones.(i)))
    in
    worker t.p_compiled ();
    Array.iter Domain.join spawned;
    (* deterministic in-order assembly: slot [i] belongs to input [i].
       Minimal-k observation happens here on the main domain (the
       shared contract's k-keyed cache answers most of it). *)
    let results =
      Array.to_list
        (Array.mapi
           (fun i r ->
             match r with
             | Some r ->
               observe_min_k t docs.(i);
               tally t r;
               r
             | None -> assert false (* every index below [n] was claimed *))
           results)
    in
    t.p_elapsed <- t.p_elapsed +. (wall () -. started);
    (results, diff_batch ~before (stats t))
end
