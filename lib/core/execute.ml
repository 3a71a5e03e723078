(* Executing a word-level rewriting against real services (steps 19-23 of
   Figure 3 and steps 7-10 of Figure 9).

   The materializer walks the concrete children forest left-to-right
   while tracking the corresponding node of the solved game: in
   production a (position, target-DFA state) pair of a win-table run;
   the test oracle walks product nodes of the reference engines through
   the same [walk]. At every function occurrence the
   strategy decides between the two fork options:
     - SAFE mode follows only winning (unmarked) nodes; the game
       guarantees the walk cannot get stuck, whatever the services
       return;
     - POSSIBLE mode follows only live nodes and *backtracks* when a
       call's actual return value leaves every live path (Figure 9c).
   A call is invoked at most once per occurrence: its result is cached,
   so backtracking re-examines recorded outputs rather than re-firing
   side effects. Invocations are reported in chronological order.

   Failure is a value, not an exception: the engine sits on a live
   exchange path where services time out, crash and break their WSDL
   contracts, so [run] returns a typed report instead of escaping. A
   service exception marks that fork option as unavailable (the walk
   still backtracks to sibling options — a safe verdict guarantees every
   remaining good path); if no path survives, the first service error is
   reported. A failed SAFE walk identifies the contract-breaking
   invocation by re-validating every cached result against its declared
   output type, rather than blaming an arbitrary one. *)

module Symbol = Axml_schema.Symbol
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

(* What the walk needs of a strategy, over its own nodes (see
   execute.mli and the [Win] functions of [table_game]). *)
type 'n game = {
  good : 'n -> bool;
  has_fork : 'n -> Symbol.t -> bool;
  moves : 'n -> Symbol.t -> keep:('n -> bool) -> invoke:(string -> 'n -> bool) -> bool;
  leave : 'n -> 'n option;
  accepting : 'n -> bool;
}

let table_game =
  { good = Win.good;
    has_fork = Win.has_fork;
    moves = Win.moves;
    leave = Win.leave;
    accepting = Win.accepting }

(* [walk ~possible game initial invoker items] materializes the forest
   [items] from the game's node [initial]; [possible] says the game is
   the possible one, which decides how a dead walk is reported.
   [validate] and [reenforce] are documented on [run] in execute.mli:
   the first only names the offender of a failed SAFE walk, and a
   [None] from the second makes a fork option unavailable, like a
   downed service. *)
let walk ?validate ?reenforce ~possible g initial invoker
    (items : Document.forest) : (outcome, failure) result =
  let invocations = ref [] in
  let service_error = ref None in
  let reenforce_refused = ref None in
  let cache : (int, ((int * Document.t) list, unit) result) Hashtbl.t =
    Hashtbl.create 8
  in
  let counter = ref 0 in
  let wrap forest =
    List.map (fun d -> incr counter; (!counter, d)) forest
  in
  let record_error fname attempts cause =
    if !service_error = None then
      service_error := Some (Service_error { fname; attempts; cause })
  in
  let invoke_once id fname params =
    match Hashtbl.find_opt cache id with
    | Some r -> r
    | None ->
      let r =
        match invoker fname params with
        | returned -> (
          invocations :=
            { inv_name = fname; inv_params = params; inv_result = returned }
            :: !invocations;
          Metrics.inc m_invoke_ok;
          if Trace.enabled Trace.default then
            Trace.emit (Invocation { fname; attempts = 0; ok = true });
          match reenforce with
          | None -> Ok (wrap returned)
          | Some re -> (
            (* The raw invocation is already recorded above — the
               re-enforcement verdict only decides whether this fork
               option stays on the table. *)
            match re fname returned with
            | Some enforced ->
              Metrics.inc m_reenforce_ok;
              Ok (wrap enforced)
            | None ->
              Metrics.inc m_reenforce_refused;
              if !reenforce_refused = None then
                reenforce_refused :=
                  Some
                    (Unrewritable_output
                       { inv_name = fname; inv_params = params;
                         inv_result = returned });
              Error ()
            | exception ((Stack_overflow | Out_of_memory) as fatal) ->
              raise fatal
            | exception cause ->
              (* A genuine fault inside nested materialization: classify
                 like any service failure so blame lands on a service,
                 not on the verdict. *)
              record_error fname 1 cause;
              Metrics.inc m_invoke_error;
              Error ()))
        | exception Invocation_failed { fname; attempts; cause } ->
          record_error fname attempts cause;
          Metrics.inc m_invoke_error;
          if Trace.enabled Trace.default then
            Trace.emit (Invocation { fname; attempts; ok = false });
          Error ()
        | exception ((Stack_overflow | Out_of_memory) as fatal) -> raise fatal
        | exception cause ->
          record_error fname 1 cause;
          Metrics.inc m_invoke_error;
          if Trace.enabled Trace.default then
            Trace.emit (Invocation { fname; attempts = 1; ok = false });
          Error ()
      in
      Hashtbl.add cache id r;
      r
  in
  (* [process items n k] consumes [items] from node [n], then calls
     [k emitted n_end], which decides whether [n_end] may end them: only
     at a copy's final position for a service's answer, only accepting
     for the whole word. It returns true as soon as one alternative
     succeeds. *)
  let rec process items n k =
    match items with
    | [] -> k [] n
    | (id, item) :: rest ->
      let sym = Document.symbol item in
      (* fork-choice accounting only where a genuine choice exists *)
      let at_fork = g.has_fork n sym in
      let keep tgt =
        if at_fork then begin
          Metrics.inc m_fork_keep;
          if Trace.enabled Trace.default then
            let fname =
              match sym with Symbol.Fun f -> f | _ -> Symbol.to_string sym
            in
            Trace.emit (Fork_choice { fname; choice = "keep" })
        end;
        g.good tgt
        && process rest tgt (fun emitted n' -> k (item :: emitted) n')
      in
      let invoke callee enter =
        Metrics.inc m_fork_invoke;
        if Trace.enabled Trace.default then
          Trace.emit (Fork_choice { fname = callee; choice = "invoke" });
        g.good enter
        && begin
          let params = Document.children item in
          match invoke_once id callee params with
          | Error () -> false  (* the service is down: this option is out *)
          | Ok wrapped ->
            process wrapped enter (fun inner n_end ->
                match g.leave n_end with
                | None -> false
                | Some exit ->
                  g.good exit
                  && process rest exit (fun emitted n' ->
                         k (inner @ emitted) n'))
        end
      in
      g.moves n sym ~keep ~invoke
  in
  let result = ref None in
  let ok =
    g.good initial
    && process (wrap items) initial (fun emitted n ->
           if g.accepting n then begin
             result := Some emitted;
             true
           end
           else false)
  in
  if ok then begin
    Metrics.inc m_runs_ok;
    match !result with
    | Some materialized -> Ok { materialized; invocations = List.rev !invocations }
    | None -> Error (Invariant_violation "walk accepted without a result")
  end
  else begin
    Metrics.inc m_runs_failed;
    Error
      (match !service_error with
       | Some f -> f  (* no surviving path once the broken calls are out *)
       | None ->
         match !reenforce_refused with
         | Some f -> f  (* a result no remaining budget could rewrite *)
         | None ->
         if possible then No_possible_path
         else begin
           (* A safe verdict cannot fail unless a service broke its
              contract: find the offending invocation by re-validating
              every cached result against its declared output type. *)
           let chronological = List.rev !invocations in
           (match validate with
            | Some valid ->
              (match
                 List.find_opt
                   (fun inv -> not (valid inv.inv_name inv.inv_result))
                   chronological
               with
               | Some inv -> Ill_typed_output inv
               | None ->
                 Invariant_violation
                   (Fmt.str
                      "safe walk failed although all %d recorded output(s) \
                       validate against their declared types"
                      (List.length chronological)))
            | None ->
              (* no validator: word-level blame — the walk stopped at the
                 most recent invocation *)
              (match !invocations with
               | inv :: _ -> Ill_typed_output inv
               | [] ->
                 Invariant_violation
                   "safe walk failed before any service was invoked"))
         end)
  end

let run ?validate ?reenforce r invoker items =
  walk ?validate ?reenforce ~possible:(Win.kind r = Win.Possible) table_game (Win.initial r)
    invoker items
