(** The service registry: name resolution, invocation with full
    accounting (counts and fees), the caller's access check against
    each service's ACL, and the [Execute.invoker] the rewriting engine
    consumes. *)

exception Unknown_service of string
exception Access_denied of { service : string; principal : string }

type t

val create : ?principal:string -> unit -> t
(** A registry calling as [principal] (default ["anonymous"]) for the
    ACL check; the principal is fixed for the registry's life. *)

val register : t -> Service.t -> unit
val register_all : t -> Service.t list -> unit

val invocation_count : t -> int
val total_cost : t -> float

val reset_accounting : t -> unit

val invoke : t -> string -> Axml_core.Document.forest -> Axml_core.Document.forest
(** Safe to call from several domains concurrently: the accounting is
    serialized behind an internal mutex, taken once the behaviour has
    returned; the behaviour runs outside it (and must itself be
    thread-safe to be used with a parallel pipeline).
    @raise Unknown_service, Access_denied as applicable. *)

val invoker : t -> Axml_core.Execute.invoker
