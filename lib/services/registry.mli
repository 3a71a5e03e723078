(** The service registry: name resolution, invocation with full
    accounting (counts and fees), spending budgets, ACLs, optional
    contract checking of inputs/outputs against the declared types, and
    the [Execute.invoker] the rewriting engine consumes. *)

exception Unknown_service of string
exception Access_denied of { service : string; principal : string }
exception Contract_violation of {
  service : string;
  what : [ `Input | `Output ];
  violations : Axml_core.Validate.violation list;
}
exception Budget_exhausted of { service : string; budget : float }

type check_mode =
  | Trust  (** never check — the paper's default; types come from WSDL *)
  | Check_input
  | Check_output
  | Check_both

type t

val create : ?principal:string -> unit -> t
val register : t -> Service.t -> unit
val register_all : t -> Service.t list -> unit
val find : t -> string -> Service.t option
val names : t -> string list

val set_check : t -> ?ctx:Axml_core.Validate.ctx -> check_mode -> unit
val set_budget : t -> float option -> unit
val set_principal : t -> string -> unit

val declare_all : t -> Axml_schema.Schema.t -> Axml_schema.Schema.t
(** Extend a schema with the WSDL declarations of every registered
    service (existing declarations win). *)

val invocation_count : t -> int
val total_cost : t -> float

val reset_accounting : t -> unit

val invoke : t -> string -> Axml_core.Document.forest -> Axml_core.Document.forest
(** Safe to call from several domains concurrently: the budget gate,
    contract checks and accounting are serialized behind an internal
    mutex; the service behaviour runs outside it (and must itself be
    thread-safe to be used with a parallel pipeline).
    @raise Unknown_service, Access_denied, Budget_exhausted,
    Contract_violation as applicable. *)

val invoker : t -> Axml_core.Execute.invoker
