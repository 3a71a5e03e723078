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
   are never double counted. Slot [i] of [m_documents] is outcome [i]:
   conformed, rewritten, rewritten_possible, rejected, attempt_failed,
   fault. *)
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
   registry mutex is only taken by [Pipeline.minimal_k]. *)
let m_min_k ~kind ~k =
  Metrics.counter
    ~help:"Documents by minimal rewriting depth (capacity planning)"
    ~labels:[ ("kind", kind); ("k", k) ]
    "axml_enforce_min_k_total"

(* Wall clock for [axml_enforcement_seconds], called directly so that
   its reading stays an unboxed float. [Sys.time] would report process
   CPU time — blind to service waits and summed across domains. *)
let wall () = Unix.gettimeofday ()

type config = {
  k : int;
  fallback_possible : bool;
    (* when the safe rewriting does not exist, attempt a possible one *)
  resilience : Resilience.t option;
    (* retry/timeout/breaker guard around every invocation *)
}

let default_config = { k = 1; fallback_possible = false; resilience = None }

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

type counts = {
  conformed : int;
  rewritten : int;
  rewritten_possible : int;
  rejected : int;
  attempt_failed : int;
  faults : int;
  invocations : int;
}

let count_result c = function
  | Ok (_, { action; invocations }) ->
    let c = { c with invocations = c.invocations + List.length invocations } in
    (match action with
     | Conformed -> { c with conformed = c.conformed + 1 }
     | Rewritten -> { c with rewritten = c.rewritten + 1 }
     | Rewritten_possible -> { c with rewritten_possible = c.rewritten_possible + 1 })
  | Error (Rejected _) -> { c with rejected = c.rejected + 1 }
  | Error (Attempt_failed _) -> { c with attempt_failed = c.attempt_failed + 1 }
  | Error (Service_fault _) -> { c with faults = c.faults + 1 }

let counts results =
  List.fold_left count_result
    { conformed = 0; rewritten = 0; rewritten_possible = 0; rejected = 0;
      attempt_failed = 0; faults = 0; invocations = 0 }
    results

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
     once per document. Batch workers on other domains enforce on this
     record itself: the contract's counters are atomics, and win-table
     lookups take no lock. *)
  type t = {
    config : config;  (* [k] is the contract's *)
    contract : Contract.t;
    invoker : Execute.invoker;  (* inside [config.resilience]'s guard *)
  }

  let contract t = t.contract
  let config t = t.config

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
         | None -> invoker) }

  let create ?(config = default_config) ?predicate ~s0 ~exchange ~invoker () =
    of_contract ~config ~invoker
      (Contract.create ~k:config.k ?predicate ~s0 ~target:exchange ())

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

  (* One outcome: slot [slot] of [m_documents], and the trace
     decision, whose [detail] renders the outcome's count. *)
  let count doc slot verdict n detail =
    Metrics.inc m_documents.(slot);
    if Trace.enabled Trace.default then
      Trace.emit (Decision { subject = subject_of doc; verdict; detail = detail n })

  (* The one classification of a result. Runs on the enforcing domain:
     every metric it counts on is atomic. *)
  let classify doc = function
    | Ok (_, { action; invocations }) ->
      let n = List.length invocations in
      if n > 0 then Metrics.inc m_invocations ~by:n;
      (match action with
       | Conformed -> count doc 0 Trace.Accept n (fun _ -> "already conforms")
       | Rewritten ->
         count doc 1 Trace.Accept n (fun n ->
             "safely rewritten, " ^ string_of_int n ^ " invocation(s)")
       | Rewritten_possible ->
         count doc 2 Trace.Accept n (fun n ->
             "possible rewriting succeeded, " ^ string_of_int n
             ^ " invocation(s)"))
    | Error (Rejected fs) ->
      count doc 3 Trace.Reject (List.length fs) (fun n ->
          string_of_int n ^ " failure(s)")
    | Error (Attempt_failed fs) ->
      count doc 4 Trace.Reject (List.length fs) (fun n ->
          "possible attempt died at run time (" ^ string_of_int n
          ^ " failure(s))")
    | Error (Service_fault fs) ->
      count doc 5 Trace.Fault (List.length fs) (fun n ->
          string_of_int n ^ " service failure(s)")

  (* One document through the three steps, timed by one clock pair
     and classified once. Safe on any domain. The span and its
     closures are built only under a trace sink. *)
  let enforce_timed t doc =
    let started = wall () in
    let result = steps t doc in
    Metrics.observe h_enforce (wall () -. started);
    classify doc result;
    result

  let enforce t doc =
    Metrics.set g_enforce_k (float_of_int t.config.k);
    if Trace.enabled Trace.default then
      Trace.with_span "enforce"
        ~detail:(fun () -> subject_of doc)
        (fun () -> enforce_timed t doc)
    else enforce_timed t doc

  (* How deep does this document actually need the rewriter to go?
     Every per-word query runs over the win tables of its depth, so a
     stream of similar documents pays the sub-k table fills once. *)
  let minimal_k t doc =
    let m = Rewriter.minimal_k t.contract doc in
    let label = function Some k -> string_of_int k | None -> "over-budget" in
    let safe_label = label m.Rewriter.safe_k
    and possible_label = label m.Rewriter.possible_k in
    Metrics.inc (m_min_k ~kind:"safe" ~k:safe_label);
    Metrics.inc (m_min_k ~kind:"possible" ~k:possible_label);
    if Trace.enabled Trace.default then
      Trace.emit
        (Note
           ("min-k " ^ subject_of doc ^ ": safe=" ^ safe_label
          ^ " possible=" ^ possible_label));
    m

  (* The one batch path, for every [jobs]: worker 0 runs on the
     calling domain, workers 1..jobs-1 on fresh domains, all on [t]
     itself; with [jobs <= 1] no domain is spawned. *)
  let enforce_many t ~jobs docs =
    let docs = Array.of_list docs in
    let n = Array.length docs in
    (* never spawn more domains than there are documents *)
    let jobs = max 1 (min jobs n) in
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
          results.(i) <- Some (enforce t docs.(i))
        done;
        worker ()
      end
    in
    let spawned = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join spawned;
    (* deterministic in-order assembly: slot [i] belongs to input [i] *)
    Array.to_list
      (Array.map
         (function
           | Some r -> r
           | None -> assert false (* every index below [n] was claimed *))
         results)
end

(* Enforce [exchange] on [doc]: a pipeline of one document. [s0] is the
   local schema (it brings the WSDL declarations of the functions the
   document may embed). *)
let enforce ?config ?predicate ~s0 ~exchange ~invoker doc =
  Pipeline.enforce (Pipeline.create ?config ?predicate ~s0 ~exchange ~invoker ()) doc
