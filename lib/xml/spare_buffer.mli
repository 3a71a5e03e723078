(** A spare [Buffer.t] reused across prints, safe under domains and
    systhreads: a print that finds the spare taken makes its own
    buffer. *)

type t

val create : unit -> t

val take : t -> Buffer.t
(** The spare, cleared, or a fresh buffer when another print holds it. *)

val contents : t -> Buffer.t -> string
(** The buffer's contents; the buffer, which the caller must not use
    again, becomes the spare unless it holds more than 1 MiB (so a spare
    holds less than 2 MiB). *)
