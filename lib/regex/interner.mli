(** A thread-safe string interner (string <-> dense int).

    Lookups are lock-free: the mapping is published as an immutable
    snapshot through an atomic, so the hot paths of the dense automata
    kernel never take a lock on a hit. Inserts are serialized behind a
    mutex and publish a fresh snapshot (copy-on-write) — cheap because
    the vocabulary is the label/function namespace of the loaded
    schemas, which stabilizes almost immediately. *)

type t

val create : unit -> t

val intern : t -> string -> int
(** [intern t s] returns the id of [s], allocating the next dense id on
    first sight. Ids are stable for the lifetime of [t] and start at 0. *)

val find : t -> string -> int
(** The id of an already-interned string, [-1] when it never was:
    never inserts, never allocates, takes no lock. One probe sequence
    of an open-addressed table keyed by {!hash}. *)

val find_sub : t -> string -> int -> int -> int
(** [find_sub t s off len] is [find t (String.sub s off len)] without
    the copy: the same probe, hashing and comparing the slice in place.
    Never inserts, never allocates, takes no lock. *)

val hash : string -> int
(** The hash {!find} probes with: a byte loop of this module's own, not
    [Hashtbl.hash]. Exposed so that tests can build colliding names. *)

val to_string : t -> int -> string
(** Inverse of {!intern}.
    @raise Invalid_argument on an id never handed out. *)

val size : t -> int
(** Number of distinct strings interned so far. *)

val global : t
(** The process-wide instance: every [Contract], on whatever domain,
    codes symbols through this one interner, so dense symbol ids
    agree across domains by construction. *)
