(** The word alphabet of the paper's model: the children of a node form
    a word over element labels and function names (Definition 3); atomic
    data values are abstracted by the single letter {!Data}, matching
    the keyword "data" of Definition 2. *)

type t =
  | Label of string  (** an element *)
  | Fun of string    (** an embedded service call *)
  | Data             (** an atomic data value *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : t Fmt.t
val to_string : t -> string
