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

type invocation = Win.invocation = {
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

exception Refused

let invocation = Win.call

let rec invocations_from r i =
  if i >= Win.calls r then [] else invocation r i :: invocations_from r (i + 1)

let invocations r = invocations_from r 0

let fail r fname attempts cause =
  Win.fail r { Win.fname; attempts; cause };
  Metrics.inc m_invoke_error

(* A fork option is tried: fork-choice accounting happens only where a
   genuine choice exists. *)
let chosen _ fname ~invoke =
  Metrics.inc (if invoke then m_fork_invoke else m_fork_keep);
  if Trace.enabled Trace.default then
    Trace.emit (Fork_choice { fname; choice = (if invoke then "invoke" else "keep") })

(* Invoke one call occurrence ([Win.walk] asks once per occurrence) and
   record it in the frame; [Win.Unavailable] when the option is out. *)
let invoke r invoker fname params =
  match invoker fname params with
  | returned ->
    Win.record r { inv_name = fname; inv_params = params; inv_result = returned };
    Metrics.inc m_invoke_ok;
    if Trace.enabled Trace.default then
      Trace.emit (Invocation { fname; attempts = 0; ok = true });
    returned
  | exception Invocation_failed { fname; attempts; cause } ->
    fail r fname attempts cause;
    if Trace.enabled Trace.default then
      Trace.emit (Invocation { fname; attempts; ok = false });
    raise Win.Unavailable
  | exception ((Stack_overflow | Out_of_memory) as fatal) -> raise fatal
  | exception cause ->
    fail r fname 1 cause;
    if Trace.enabled Trace.default then
      Trace.emit (Invocation { fname; attempts = 1; ok = false });
    raise Win.Unavailable

(* [invoke], then [reenforce owner fname returned] rewrites what the
   call returned: the raw invocation is already recorded, and the
   verdict only decides whether this fork option stays on the table. *)
let invoke_reenforced r invoker reenforce owner fname params =
  let returned = invoke r invoker fname params in
  match reenforce owner fname returned with
  | enforced ->
    Metrics.inc m_reenforce_ok;
    enforced
  | exception Refused ->
    Metrics.inc m_reenforce_refused;
    Win.refuse_last r;
    raise Win.Unavailable
  | exception ((Stack_overflow | Out_of_memory) as fatal) -> raise fatal
  | exception cause ->
    (* A genuine fault inside nested materialization: classify like any
       service failure so blame lands on a service, not on the
       verdict. *)
    fail r fname 1 cause;
    raise Win.Unavailable

let follow r service st items =
  match Win.walk r service st items with
  | materialized ->
    Metrics.inc m_runs_ok;
    materialized
  | exception Win.Dead ->
    Metrics.inc m_runs_failed;
    raise_notrace Win.Dead

(* The first recorded result [valid] refuses, -1. *)
let rec first_invalid valid r i =
  if i >= Win.calls r then -1
  else
    let inv = Win.call r i in
    if not (valid inv.inv_name inv.inv_result) then i else first_invalid valid r (i + 1)

(* Why a walk died: the first service error (no surviving path once the
   broken calls are out), else the first result no remaining budget
   could rewrite, else the verdict's own failure mode. *)
let failure ~validate r =
  match Win.failed r with
  | Some { Win.fname; attempts; cause } -> Service_error { fname; attempts; cause }
  | None when Win.refused r >= 0 -> Unrewritable_output (invocation r (Win.refused r))
  | None ->
    if Win.kind r = Win.Possible then No_possible_path
    else begin
      (* A safe verdict cannot fail unless a service broke its
         contract: find the offending invocation by re-validating every
         recorded result against its declared output type. *)
      match validate with
      | Some valid ->
        let i = first_invalid valid r 0 in
        if i >= 0 then Ill_typed_output (invocation r i)
        else
          Invariant_violation
            (Fmt.str
               "safe walk failed although all %d recorded output(s) validate against \
                their declared types"
               (Win.calls r))
      | None ->
        (* no validator: word-level blame — the walk stopped at the most
           recent invocation *)
        if Win.calls r > 0 then Ill_typed_output (invocation r (Win.calls r - 1))
        else Invariant_violation "safe walk failed before any service was invoked"
    end

(* [run]'s state: the invoker, and the hook its results go through. *)
type plain = {
  invoker : invoker;
  reenforce : (string -> Document.forest -> Document.forest) option;
}

let apply re fname returned = re fname returned

let plain_call p r fname params =
  match p.reenforce with
  | None -> invoke r p.invoker fname params
  | Some re -> invoke_reenforced r p.invoker apply re fname params

let plain = { Win.chosen; call = plain_call }

let run ?validate ?reenforce r invoker items =
  match follow r plain { invoker; reenforce } items with
  | materialized -> Ok { materialized; invocations = invocations r }
  | exception Win.Dead -> Error (failure ~validate r)
