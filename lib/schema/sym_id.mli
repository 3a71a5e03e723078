(** Dense integer codes for schema symbols ([Data] / [Label] / [Fun]),
    backed by the process-wide {!Axml_regex.Interner.global}. The dense
    automata kernel steps transition tables indexed by these ids; the
    coding is positional (Data = 0, Label l = 2·intern l + 1,
    Fun f = 2·intern f + 2) so distinct symbols never collide and the
    ids agree across domains. *)

val data : int
(** The id of {!Symbol.Data} (always 0). *)

val of_label : string -> int
val of_fun : string -> int

val of_symbol : Symbol.t -> int
val to_symbol : int -> Symbol.t
(** Inverse of {!of_symbol}.
    @raise Invalid_argument on an id never handed out. *)

val of_word : Symbol.t list -> int array
