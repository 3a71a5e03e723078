(** Document schemas for intensional XML (Definition 2), extended with
    the richer features of Section 2.1: function patterns, wildcards and
    the invocable / non-invocable partition.

    Content models are regular expressions over {!atom}s. Compiling a
    schema resolves atoms to the word alphabet {!Symbol.t} relative to
    an {!env} — the finite sets of known labels and functions — with
    patterns and wildcards expanded into the alternation of their
    members, exactly how the paper's implementation treats them. *)

module String_map : Map.S with type key = string
module String_set : Set.S with type elt = string

type atom =
  | A_label of string    (** an element type *)
  | A_fun of string      (** a specific function (Web service) *)
  | A_pattern of string  (** a function pattern (Section 2.1) *)
  | A_data               (** the "data" keyword *)
  | A_any_element        (** wildcard: any known element *)
  | A_any_fun            (** wildcard: any known function *)

type content = atom Axml_regex.Regex.t

type func = {
  f_name : string;
  f_input : content;           (** tau_in *)
  f_output : content;          (** tau_out *)
  f_invocable : bool;          (** may a legal rewriting fire it? *)
  f_endpoint : string option;  (** locator attributes of the XML syntax *)
  f_namespace : string option;
}

type pattern = {
  p_name : string;
  p_predicates : string list;
    (** names of boolean predicate services (e.g. ["UDDIF"; "InACL"]);
        a function matches if every predicate accepts its name *)
  p_input : content;
  p_output : content;
  p_invocable : bool;
}

type t = {
  elements : content String_map.t;
  functions : func String_map.t;
  patterns : pattern String_map.t;
  root : string option;  (** distinguished root label, if any *)
}

type error =
  | Undeclared_name of string
  | Duplicate_declaration of string
  | Pattern_in_signature of string
  | Nondeterministic_content of string
  | Incompatible_function of string

exception Schema_error of error

val pp_error : error Fmt.t
val pp_content : content Fmt.t
val pp : t Fmt.t

(** {1 Construction} *)

val empty : t

val add_element : t -> string -> content -> t
(** @raise Schema_error on duplicate declarations (also the others). *)

val add_function : t -> func -> t
val add_pattern : t -> pattern -> t
val with_root : t -> string -> t

val func :
  ?invocable:bool -> ?endpoint:string -> ?namespace:string ->
  string -> input:content -> output:content -> func

val pattern :
  ?invocable:bool -> ?predicates:string list ->
  string -> input:content -> output:content -> pattern

(** {1 Access} *)

val find_element : t -> string -> content option
val find_function : t -> string -> func option
val find_pattern : t -> string -> pattern option
val element_names : t -> string list
val function_names : t -> string list
val atoms_of_content : content -> atom list

val resolve_content :
  functions:String_set.t -> patterns:String_set.t ->
  string Axml_regex.Regex.t -> content
(** Map raw identifiers from a parsed regex to atoms: declared function
    and pattern names win, [#data] / [#any] / [#anyfun] are keywords,
    anything else is an element label. *)

(** {1 Well-formedness} *)

val check : ?deterministic:bool -> t -> unit
(** Every name used must be declared; signatures must not mention
    patterns; with [~deterministic:true], every content model must be
    1-unambiguous. @raise Schema_error otherwise. *)

(** {1 Compilation environment} *)

type env = {
  env_labels : String_set.t;
  env_functions : func String_map.t;
  env_patterns : pattern String_map.t;
  predicate : string -> string -> bool;
    (** [predicate pred_name fun_name]: does the predicate service
        accept this function? (The paper implements predicates as
        boolean Web services.) Defaults to accepting everything. *)
}

val env_of_schema : ?predicate:(string -> string -> bool) -> t -> env
(** Also interns every declared label and function name
    ({!Sym_id.of_label}, {!Sym_id.of_fun}), so that documents built
    afterwards carry their nodes' symbol ids. *)

val merge : t -> t -> t
(** Merge the sender schema with the exchange schema. Common functions
    must agree on their signatures (the paper's Section 4 assumption);
    their invocability is the conjunction of the two declarations.
    Element types may differ freely; the right argument wins.
    @raise Schema_error on a signature conflict. *)

val env_of_schemas :
  ?predicate:(string -> string -> bool) -> t -> t -> env
(** [env_of_schema] of the {!merge}. *)

(** {1 Compilation} *)

val compile_content : env -> content -> Symbol.t Axml_regex.Regex.t
(** Resolve atoms to word symbols; patterns and wildcards expand to the
    alternation of their members. *)

val compile_signature : env -> content -> Symbol.t Axml_regex.Regex.t
(** As {!compile_content} but patterns are forbidden
    (@raise Schema_error). *)

val pattern_members : env -> pattern -> func list
(** The functions belonging to a pattern: predicates accept their name
    and their signature matches (Section 2.1). *)

val compiled_element : env -> t -> string -> Symbol.t Axml_regex.Regex.t option
val compiled_output : env -> string -> Symbol.t Axml_regex.Regex.t option
val is_invocable : env -> string -> bool

val alphabet : env -> t -> Auto.Sym_set.t
(** Every word symbol the schema can mention, for closing automaton
    alphabets. *)
