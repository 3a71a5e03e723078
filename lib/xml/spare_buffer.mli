(** A spare [Buffer.t] reused across prints, safe under domains and
    systhreads: a print that finds the spare taken makes its own
    buffer. *)

type t

val create : unit -> t

val max_kept : int
(** 1 MiB: a buffer whose contents grew past this is dropped rather
    than kept as the spare. *)

val take : t -> Buffer.t
(** The spare, cleared, or a fresh buffer when another print holds it. *)

val release : t -> Buffer.t -> unit
(** Give a buffer taken with {!take} back, its contents uncopied. The
    caller must not use it again; it becomes the spare unless it holds
    more than {!max_kept} bytes (so a spare holds less than 2 MiB). *)

val contents : t -> Buffer.t -> string
(** The buffer's contents, then {!release}. *)
