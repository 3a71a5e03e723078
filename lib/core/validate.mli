(** Schema validation (Definition 3): a document is an instance of a
    schema when every data node's children word belongs to its label's
    content model and every function node's parameter word belongs to
    its input type.

    A {!ctx} is the one compiled form of a schema: at creation every
    content model of the schema and every input and output type of its
    environment is determinized once into a {!model}, and the ctx never
    changes after that, so any number of domains may share it. A
    {!Contract} holds the ctx of its target schema; validation, the
    rewriting games of {!Win} and enforcement all step its tables. *)

type violation_kind =
  | Unknown_label of string
  | Unknown_function of string
  | Content_mismatch of { label : string; word : Axml_schema.Symbol.t list }
  | Input_mismatch of { fname : string; word : Axml_schema.Symbol.t list }
  | Root_mismatch of { expected : string; found : string }

type violation = { at : Document.path; kind : violation_kind }

val pp_violation_kind : violation_kind Fmt.t
val pp_violation : violation Fmt.t

type model = {
  regex : Axml_schema.Symbol.t Axml_regex.Regex.t;
  dfa : Axml_schema.Auto.Dfa.Dense.dense;
      (** the subset construction of the regex's Glushkov automaton,
          frozen over {!Axml_schema.Sym_id}; state [-1] rejects *)
}
(** A compiled content model. *)

val compile : Axml_schema.Symbol.t Axml_regex.Regex.t -> model
(** Determinize one content model. A {!ctx} builds every model with
    it, and so does a {!Contract} for a regex no schema declares. *)

type ctx

val ctx : ?env:Axml_schema.Schema.env -> Axml_schema.Schema.t -> ctx
(** Compile the schema. Input/output types of functions are looked up
    in [env] (default: the schema's own environment), so a peer may
    validate documents embedding calls declared only by the other
    party's WSDL.
    @raise Axml_schema.Schema.Schema_error when a content model does not
    compile against [env]. [env]'s pattern predicates are called here. *)

val element_model : ctx -> string -> model option
(** The content model of a label of the schema. *)

val input_model : ctx -> string -> model option
(** The input type of a function of the environment. *)

val model_of_id : ctx -> int -> model option
(** The model a node is judged against, by its letter's
    {!Document.sym_id}: {!element_model} for an element,
    {!input_model} for a call, [None] for data and undeclared names.
    An array read. *)

val models : ctx -> model list
(** Every element and input model of the ctx. *)

val forest_accepted :
  Axml_schema.Auto.Dfa.Dense.dense -> Document.forest -> bool
(** Membership of a children forest in a dense-compiled content model:
    steps the flat tables directly over the children — no word list, no
    allocation, early exit through the absorbing reject state. *)

(** {1 The static walk}

    Every static pass judges a document node by node: an element's
    children word against its label's content model
    ({!element_model}), a call's parameters against the function's
    input type ({!input_model}), and the whole document against the
    schema's root label ({!root_violation}). {!fold} hands each node
    its model and the model of the word it sits in. Validation, the
    rewriter's static check and minimal k, document lint and migration
    advice all run on it. *)

val root_violation : ctx -> Document.t -> violation option
(** The root rule: when the schema names a root label, the document
    must be an element with that label. *)

val node_violation : Document.t -> model option -> violation_kind option
(** The model rule for one node, given its model ([None] when its
    label or function is undeclared): the undeclared name, or a
    children word outside the model. [None] for a data leaf. *)

val fold :
  ctx -> ?rev_path:Document.path ->
  (Document.path -> Document.t -> model option -> model option -> 'a -> 'a) ->
  Document.t -> 'a -> 'a
(** [fold ctx f doc acc] calls [f rev_path node own enclosing acc] on
    every element and call of [doc], in prefix order; data leaves are
    judged against nothing and skipped. [rev_path] is the node's path
    with the innermost index first ([List.rev] gives its
    {!Document.path}); [own] is its model, [None] for an undeclared
    label or function; [enclosing] is the [own] of its parent, [None]
    at the root. [?rev_path] is the reversed path of [doc] itself
    (default [[]]). The walk only reads; besides the model lookup, a
    visited node allocates only its path cell. *)

val violations : ctx -> Document.t -> violation list
(** All violations of the model rule, prefix order; [[]] means
    instance. *)

val document_violations : ctx -> Document.t -> violation list
(** The root rule's violation, then {!violations}. *)

val document_conforms : ctx -> Document.t -> bool
(** Boolean twin of {!document_violations}: same verdict as
    [document_violations ctx doc = []], but builds no list and
    stops at the first offence. *)

val output_instance : ctx -> string -> Document.forest -> violation list
(** Is the forest an output instance of the function (Definition 3)? *)
