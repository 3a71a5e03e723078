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
(** [of_label], [of_fun] and [of_symbol] intern: schema compilation
    uses them. *)

val find_label : string -> int
val find_fun : string -> int

val find_symbol : Symbol.t -> int
(** [find_label], [find_fun] and [find_symbol] look the id up: [-1]
    for a name never interned, which no table has a column for. This is
    how a document's letters are coded, so judging documents never
    grows the interner. They allocate nothing. *)

val find_label_sub : string -> int -> int -> int
val find_fun_sub : string -> int -> int -> int
(** [find_label_sub s off len] is [find_label (String.sub s off len)]
    without the copy ({!Axml_regex.Interner.find_sub}); the same for
    [find_fun_sub]. They allocate nothing. *)

val name : int -> string
(** The interned name of a label or function id ([>= 1]): the string
    {!of_label} or {!of_fun} was given, not a copy.
    @raise Invalid_argument on an id never handed out. *)

val of_word : Symbol.t list -> int array
