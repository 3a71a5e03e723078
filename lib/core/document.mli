(** Intensional documents (Definition 1): ordered labeled trees whose
    nodes are either data nodes (elements and atomic values) or function
    nodes (embedded service calls). The children of a function node are
    its call parameters; invoking the call replaces the node by the
    returned forest (Definition 4, footnote 3). *)

type t = private
  | Elem of { label : string; id : int; children : t list }
  | Data of string
  | Call of { name : string; id : int; params : t list }
(** [id] is the dense {!Axml_schema.Sym_id} of the label or function
    name, resolved once, by lookup, when the node is built: [-1] if no
    schema had declared the name by then. Nodes are built only by
    {!elem}, {!data}, {!call} and {!rebuild}; read the id through
    {!sym_id}. *)

type forest = t list

val elem : string -> t list -> t
val data : string -> t
val call : string -> t list -> t

val elem_of_id : int -> t list -> t
val call_of_id : int -> t list -> t
(** [elem_of_id id children] is [elem l children] for the label [l]
    whose {!Axml_schema.Sym_id} is [id] ([id >= 0], as
    {!Axml_schema.Sym_id.find_label_sub} gives it), with [l] the
    interned name itself, not a copy; the same for [call_of_id] and
    function ids. *)

val symbol : t -> Axml_schema.Symbol.t
(** The letter a node contributes to its parent's children word. *)

val word : forest -> Axml_schema.Symbol.t list

val sym_id : t -> int
(** The {!Axml_schema.Sym_id} of {!symbol}: the node's [id], or a
    lookup when that is [-1] (the node was built before a schema
    declared its name), so the answer never depends on when the node
    was built. [-1] for a label or function no schema declared. Never
    interns, never allocates. *)


val children : t -> t list
(** Children of an element, parameters of a call, [[]] for data. *)

val rebuild : t -> t list -> t
(** The same element or call over new children (parameters), its id
    kept. @raise Invalid_argument on a data leaf. *)

val count_nodes : t -> int
val count_calls : t -> int
val is_extensional : t -> bool
(** No embedded call anywhere. *)

val depth : t -> int
val equal : t -> t -> bool
val equal_forest : forest -> forest -> bool

(** {1 Paths} — node addresses as child-index sequences from the root *)

type path = int list

val pp_path : path Fmt.t
val get : t -> path -> t option

val splice : t -> path -> forest -> t
(** Replace the node at [path] by a forest (the semantics of invoking a
    call node). @raise Invalid_argument on an empty or dangling path. *)

val call_nesting : t -> int
(** Nesting depth of calls inside call parameters; [0] when no call has
    a call among its parameters. *)

(** {1 Printing} — a compact term-like form: [newspaper[title["x"], @F(p)]] *)

val pp : t Fmt.t
val pp_forest : forest Fmt.t
val to_string : t -> string
