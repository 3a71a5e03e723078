(* Executing a word-level rewriting against real services (steps 19-23 of
   Figure 3 and steps 7-10 of Figure 9).

   [Win.walk] follows the solved game over the concrete children forest:
   SAFE mode moves only to winning states, so the walk cannot get stuck
   whatever honest services return; POSSIBLE mode *backtracks* when a
   call's actual return value leaves every live path (Figure 9c). This
   module makes the calls the walk asks for (at most once per
   occurrence), records them in chronological order and accounts for
   every fork option tried.

   Failure is a value, not an exception: the engine sits on a live
   exchange path where services time out, crash and break their WSDL
   contracts, so [run] returns a typed report instead of escaping. A
   service exception marks that fork option as unavailable (the walk
   still backtracks to sibling options — a safe verdict guarantees every
   remaining good path); if no path survives, the first service error is
   reported. A failed SAFE walk identifies the contract-breaking
   invocation by re-validating every recorded result against its
   declared output type, rather than blaming an arbitrary one. *)

module Metrics = Axml_obs.Metrics
module Trace = Axml_obs.Trace

let m_invocation result =
  Metrics.counter ~help:"Service invocations fired by the materializer"
    ~labels:[ ("status", result) ]
    "axml_execute_invocations_total"

let m_invoke_ok = m_invocation "ok"
let m_invoke_error = m_invocation "error"

let m_fork choice =
  Metrics.counter
    ~help:"Fork options attempted at invoke/keep choice points"
    ~labels:[ ("choice", choice) ]
    "axml_execute_fork_choices_total"

let m_fork_keep = m_fork "keep"
let m_fork_invoke = m_fork "invoke"

let m_runs outcome =
  Metrics.counter ~help:"Materialization walks, by result"
    ~labels:[ ("outcome", outcome) ]
    "axml_execute_runs_total"

let m_runs_ok = m_runs "ok"
let m_runs_failed = m_runs "failed"

let m_reenforce result =
  Metrics.counter
    ~help:"Returned forests re-enforced against the remaining depth budget"
    ~labels:[ ("result", result) ]
    "axml_execute_reenforcements_total"

let m_reenforce_ok = m_reenforce "ok"
let m_reenforce_refused = m_reenforce "refused"

type invoker = string -> Document.forest -> Document.forest

exception Invocation_failed of { fname : string; attempts : int; cause : exn }

type invocation = {
  inv_name : string;
  inv_params : Document.forest;
  inv_result : Document.forest;
}

type failure =
  | Ill_typed_output of invocation
  | Unrewritable_output of invocation
  | Service_error of { fname : string; attempts : int; cause : exn }
  | No_possible_path
  | Invariant_violation of string

let pp_failure ppf = function
  | Ill_typed_output inv ->
    Fmt.pf ppf "service %s returned a value outside its declared output type"
      inv.inv_name
  | Unrewritable_output inv ->
    Fmt.pf ppf
      "service %s returned a value that cannot be rewritten into the target \
       within the remaining depth budget"
      inv.inv_name
  | Service_error { fname; attempts; cause } ->
    Fmt.pf ppf "service %s failed after %d attempt(s): %s" fname attempts
      (Printexc.to_string cause)
  | No_possible_path ->
    Fmt.string ppf "every possible rewriting path died on the actual answers"
  | Invariant_violation msg -> Fmt.pf ppf "internal invariant violated: %s" msg

type outcome = {
  materialized : Document.forest;
  invocations : invocation list;
}

(* One walk's bookkeeping: [Win.walk] calls back into it at every fork
   option tried and every call occurrence it asks for. *)
type walk = {
  invoker : invoker;
  reenforce : (string -> Document.forest -> Document.forest) option;
  mutable invocations : invocation list;  (* latest first *)
  mutable service_error : failure option;  (* the first one *)
  mutable refused : failure option;  (* the first re-enforcement refusal *)
}

exception Refused

let record_error w fname attempts cause =
  if w.service_error = None then w.service_error <- Some (Service_error { fname; attempts; cause })

(* A fork option is tried: fork-choice accounting happens only where a
   genuine choice exists. *)
let chosen _ fname ~invoke =
  Metrics.inc (if invoke then m_fork_invoke else m_fork_keep);
  if Trace.enabled Trace.default then
    Trace.emit (Fork_choice { fname; choice = (if invoke then "invoke" else "keep") })

(* Invoke one call occurrence ([Win.walk] asks once per occurrence):
   the forest to walk in its place; [Win.Unavailable] when the option
   is out. *)
let call w fname params =
  match w.invoker fname params with
  | returned -> (
    w.invocations <- { inv_name = fname; inv_params = params; inv_result = returned } :: w.invocations;
    Metrics.inc m_invoke_ok;
    if Trace.enabled Trace.default then
      Trace.emit (Invocation { fname; attempts = 0; ok = true });
    match w.reenforce with
    | None -> returned
    | Some re -> (
      (* The raw invocation is already recorded above — the
         re-enforcement verdict only decides whether this fork option
         stays on the table. *)
      match re fname returned with
      | enforced ->
        Metrics.inc m_reenforce_ok;
        enforced
      | exception Refused ->
        Metrics.inc m_reenforce_refused;
        if w.refused = None then
          w.refused <-
            Some
              (Unrewritable_output
                 { inv_name = fname; inv_params = params; inv_result = returned });
        raise Win.Unavailable
      | exception ((Stack_overflow | Out_of_memory) as fatal) -> raise fatal
      | exception cause ->
        (* A genuine fault inside nested materialization: classify like
           any service failure so blame lands on a service, not on the
           verdict. *)
        record_error w fname 1 cause;
        Metrics.inc m_invoke_error;
        raise Win.Unavailable))
  | exception Invocation_failed { fname; attempts; cause } ->
    record_error w fname attempts cause;
    Metrics.inc m_invoke_error;
    if Trace.enabled Trace.default then
      Trace.emit (Invocation { fname; attempts; ok = false });
    raise Win.Unavailable
  | exception ((Stack_overflow | Out_of_memory) as fatal) -> raise fatal
  | exception cause ->
    record_error w fname 1 cause;
    Metrics.inc m_invoke_error;
    if Trace.enabled Trace.default then
      Trace.emit (Invocation { fname; attempts = 1; ok = false });
    raise Win.Unavailable

let service = { Win.chosen; call }

(* Why a walk died: the first service error (no surviving path once the
   broken calls are out), else the first result no remaining budget
   could rewrite, else the verdict's own failure mode. *)
let failure ?validate ~possible w =
  match w.service_error, w.refused with
  | Some f, _ | None, Some f -> f
  | None, None ->
    if possible then No_possible_path
    else begin
      (* A safe verdict cannot fail unless a service broke its
         contract: find the offending invocation by re-validating every
         recorded result against its declared output type. *)
      let chronological = List.rev w.invocations in
      match validate with
      | Some valid -> (
        match List.find_opt (fun inv -> not (valid inv.inv_name inv.inv_result)) chronological with
        | Some inv -> Ill_typed_output inv
        | None ->
          Invariant_violation
            (Fmt.str
               "safe walk failed although all %d recorded output(s) validate against \
                their declared types"
               (List.length chronological)))
      | None -> (
        (* no validator: word-level blame — the walk stopped at the most
           recent invocation *)
        match w.invocations with
        | inv :: _ -> Ill_typed_output inv
        | [] -> Invariant_violation "safe walk failed before any service was invoked")
    end

let run_latest_first ~validate ~reenforce r invoker items =
  let w = { invoker; reenforce; invocations = []; service_error = None; refused = None } in
  match Win.walk r service w items with
  | Some materialized ->
    Metrics.inc m_runs_ok;
    Ok { materialized; invocations = w.invocations }
  | None ->
    Metrics.inc m_runs_failed;
    Error (failure ?validate ~possible:(Win.kind r = Win.Possible) w)

let run ?validate ?reenforce r invoker items =
  match run_latest_first ~validate ~reenforce r invoker items with
  | Ok o -> Ok { o with invocations = List.rev o.invocations }
  | Error _ as e -> e
