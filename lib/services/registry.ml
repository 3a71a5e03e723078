(* The service registry: name -> service resolution, the caller's ACL
   check, and invocation with accounting (invocation count and
   fees). *)

exception Unknown_service of string
exception Access_denied of { service : string; principal : string }

(* A record of float fields alone is stored flat, so adding a fee
   boxes nothing. *)
type spent = { mutable total : float }

type t = {
  services : (string, Service.t) Hashtbl.t;
  lock : Mutex.t;
    (* guards the accounting fields below, so [invoke] is safe to call
       from several domains concurrently (parallel pipelines do);
       behaviours run outside the lock *)
  mutable invocation_count : int;
  spent : spent;
  principal : string;  (* the caller identity for ACL checks *)
}

let create ?(principal = "anonymous") () = {
  services = Hashtbl.create 16;
  lock = Mutex.create ();
  invocation_count = 0;
  spent = { total = 0. };
  principal;
}

let register t (service : Service.t) =
  Hashtbl.replace t.services service.Service.name service

let register_all t services = List.iter (register t) services

let invocation_count t = t.invocation_count
let total_cost t = t.spent.total

let reset_accounting t =
  t.invocation_count <- 0;
  t.spent.total <- 0.

(* Invoke [name]: the registry is an [Execute.invoker]. The behaviour
   runs outside the lock — a slow service never serializes the other
   domains — and the count and the fee are added under it once the
   behaviour has returned. The lock is taken and released by hand, not
   through [Mutex.protect]'s closure, so an invocation allocates
   nothing of its own; nothing in the section can raise. *)
let invoke t name params =
  let service =
    match Hashtbl.find t.services name with
    | service -> service
    | exception Not_found -> raise (Unknown_service name)
  in
  if not (Service.allows service t.principal) then
    raise (Access_denied { service = name; principal = t.principal });
  let result = service.behaviour params in
  Mutex.lock t.lock;
  t.invocation_count <- t.invocation_count + 1;
  t.spent.total <- t.spent.total +. service.cost;
  Mutex.unlock t.lock;
  result

let invoker t : Axml_core.Execute.invoker = fun name params -> invoke t name params
