(** Schema validation (Definition 3): a document is an instance of a
    schema when every data node's children word belongs to its label's
    content model and every function node's parameter word belongs to
    its input type.

    A {!ctx} caches the compiled DFA of every content model, so repeated
    validations (the enforcement module validates every exchanged
    document) cost one automaton construction per type. *)

type violation_kind =
  | Unknown_label of string
  | Unknown_function of string
  | Content_mismatch of { label : string; word : Axml_schema.Symbol.t list }
  | Input_mismatch of { fname : string; word : Axml_schema.Symbol.t list }
  | Root_mismatch of { expected : string; found : string }

type violation = { at : Document.path; kind : violation_kind }

val pp_violation_kind : violation_kind Fmt.t
val pp_violation : violation Fmt.t

type ctx

val ctx : ?env:Axml_schema.Schema.env -> Axml_schema.Schema.t -> ctx
(** Validation context for one schema. Input/output types of functions
    are looked up in [env] (default: the schema's own environment), so a
    peer may validate documents embedding calls declared only by the
    other party's WSDL. *)

val element_dfa : ctx -> string -> Axml_schema.Auto.Dfa.t option
val input_dfa : ctx -> string -> Axml_schema.Auto.Dfa.t option
val output_dfa : ctx -> string -> Axml_schema.Auto.Dfa.t option

val forest_accepted :
  Axml_schema.Auto.Dfa.Dense.dense -> Document.forest -> bool
(** Membership of a children forest in a dense-compiled content model:
    steps the flat tables directly over the children — no word list, no
    allocation, early exit through the absorbing reject state. *)

val violations : ctx -> Document.t -> violation list
(** All violations, prefix order; [[]] means instance. *)

val document_violations : ctx -> Document.t -> violation list
(** As {!violations}, additionally requiring the schema's distinguished
    root label. *)

val document_conforms : ctx -> Document.t -> bool
(** Boolean twin of {!document_violations}: same verdict as
    [document_violations ctx doc = []], but walks the dense tables with
    no path or list allocation and stops at the first offence. *)

val output_instance : ctx -> string -> Document.forest -> violation list
(** Is the forest an output instance of the function (Definition 3)? *)

val input_instance : ctx -> string -> Document.forest -> violation list
