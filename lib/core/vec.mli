(** A minimal growable array (OCaml 5.1 has no stdlib Dynarray), used by
    the on-the-fly product construction where the number of states is
    not known in advance. *)

type 'a t

val create : dummy:'a -> 'a t
val length : 'a t -> int
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> int
(** Append and return the index of the new element. *)

val ensure : 'a t -> int -> unit
(** Grow the vector to at least the given length, filling fresh slots
    with the dummy. No-op if already long enough. *)

val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
val to_list : 'a t -> 'a list
val to_array : 'a t -> 'a array
(** A fresh array of the current elements. *)
