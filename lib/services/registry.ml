(* The service registry: name -> service resolution, invocation with
   accounting (invocation count and fees), optional contract checking
   of inputs and outputs against the declared types, and fault
   injection for the failure tests. *)

module Schema = Axml_schema.Schema
module Validate = Axml_core.Validate

exception Unknown_service of string
exception Access_denied of { service : string; principal : string }
exception Contract_violation of { service : string; what : [ `Input | `Output ];
                                  violations : Validate.violation list }
exception Budget_exhausted of { service : string; budget : float }

type check_mode =
  | Trust            (* never check (the paper's default: types come from WSDL) *)
  | Check_input
  | Check_output
  | Check_both

(* A record of float fields alone is stored flat, so adding a fee
   boxes nothing. *)
type spent = { mutable total : float }

type t = {
  services : (string, Service.t) Hashtbl.t;
  lock : Mutex.t;
    (* guards the accounting fields and the contract checks below, so
       [invoke] is safe to call from several domains concurrently
       (parallel pipelines do); behaviours run outside the lock *)
  mutable invocation_count : int;
  spent : spent;
  mutable budget : float option;   (* spending cap, if any *)
  mutable check : check_mode;
  mutable check_ctx : Validate.ctx option;  (* schema for contract checks *)
  mutable principal : string;  (* the caller identity for ACL checks *)
}

let create ?(principal = "anonymous") () = {
  services = Hashtbl.create 16;
  lock = Mutex.create ();
  invocation_count = 0;
  spent = { total = 0. };
  budget = None;
  check = Trust;
  check_ctx = None;
  principal;
}

let register t (service : Service.t) =
  Hashtbl.replace t.services service.Service.name service

let register_all t services = List.iter (register t) services

let find t name = Hashtbl.find_opt t.services name

let names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.services [] |> List.sort compare

let set_check t ?ctx mode =
  t.check <- mode;
  (match ctx with Some c -> t.check_ctx <- Some c | None -> ())

let set_budget t budget = t.budget <- budget
let set_principal t principal = t.principal <- principal

(* Declarations of every registered service, to extend a schema with
   (the "WSDL description for each service being used" of Section 4). *)
let declare_all t schema =
  Hashtbl.fold
    (fun name service schema ->
      match Schema.find_function schema name with
      | Some _ -> schema  (* already declared *)
      | None -> Schema.add_function schema (Service.declaration service))
    t.services schema

let invocation_count t = t.invocation_count
let total_cost t = t.spent.total

let reset_accounting t =
  t.invocation_count <- 0;
  t.spent.total <- 0.

(* The checks made under the lock before the behaviour runs: the
   budget gate and the input contract. *)
let admit t name (service : Service.t) params =
  (match t.budget with
   | Some budget when t.spent.total +. service.cost > budget ->
     raise (Budget_exhausted { service = name; budget })
   | Some _ | None -> ());
  match t.check, t.check_ctx with
  | (Check_input | Check_both), Some ctx -> (
    match Validate.input_instance ctx name params with
    | [] -> ()
    | violations ->
      raise (Contract_violation { service = name; what = `Input; violations }))
  | _ -> ()

(* The checks and the accounting made under the lock after it: the
   output contract, then the count and the fee. *)
let settle t name (service : Service.t) result =
  (match t.check, t.check_ctx with
   | (Check_output | Check_both), Some ctx -> (
     match Validate.output_instance ctx name result with
     | [] -> ()
     | violations ->
       raise (Contract_violation { service = name; what = `Output; violations }))
   | _ -> ());
  t.invocation_count <- t.invocation_count + 1;
  t.spent.total <- t.spent.total +. service.cost

(* Release [lock] and re-raise [e], which escaped a section it
   guarded, with its backtrace. *)
let unlock_raise lock e =
  let bt = Printexc.get_raw_backtrace () in
  Mutex.unlock lock;
  Printexc.raise_with_backtrace e bt

(* Invoke [name]: the registry is an [Execute.invoker]. The budget
   gate and contract checks run under the lock (the check contexts
   memoize DFAs mutably), the behaviour itself does not — a slow
   service never serializes the other domains. The lock is taken and
   released by hand, not through [Mutex.protect]'s closure, so an
   invocation allocates nothing of its own. *)
let invoke t name params =
  let service =
    match Hashtbl.find t.services name with
    | service -> service
    | exception Not_found -> raise (Unknown_service name)
  in
  if not (Service.allows service t.principal) then
    raise (Access_denied { service = name; principal = t.principal });
  Mutex.lock t.lock;
  (match admit t name service params with
   | () -> Mutex.unlock t.lock
   | exception e -> unlock_raise t.lock e);
  let result = service.behaviour params in
  Mutex.lock t.lock;
  (match settle t name service result with
   | () -> Mutex.unlock t.lock
   | exception e -> unlock_raise t.lock e);
  result

let invoker t : Axml_core.Execute.invoker = fun name params -> invoke t name params
