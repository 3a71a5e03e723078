(** Random instance generation: documents, output instances and words
    drawn from a schema. Drives the property-based tests and the
    honest-random service oracles ("the adversary picks any output
    instance", Definition 4). *)

exception Generation_failed of string

type t

val create :
  ?seed:int -> ?max_depth:int -> ?call_probability:float -> ?fuel:int ->
  ?env:Axml_schema.Schema.env -> Axml_schema.Schema.t -> t
(** [max_depth] is a hard recursion cutoff
    (@raise Generation_failed beyond it, e.g. on unboundedly recursive
    schemas). [call_probability] (default [0.5]) is how often sampling
    keeps a function symbol when a content model also offers its
    materialized alternative — the {e call density} of generated
    documents. [fuel] (default [4]) bounds star unrollings at the root,
    decaying with depth — the {e size} knob workload mixes turn to
    fatten or thin documents. *)

val sample_word :
  t -> ?fuel:int -> Axml_schema.Symbol.t Axml_regex.Regex.t ->
  Axml_schema.Symbol.t list
(** A random word of a compiled content model; [fuel] bounds star
    unrollings. *)

val instance : t -> string -> Document.t
(** A random instance of an element type. *)

val document : t -> Document.t
(** A random instance of the schema's distinguished root. *)

val output_instance : t -> string -> Document.forest
(** What an honest service implementing the signature may return. *)
