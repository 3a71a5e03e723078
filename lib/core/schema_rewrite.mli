(** Schema-to-schema safe rewriting (Section 6): can EVERY document of
    the sender schema, rooted at a given label, be safely rewritten into
    the exchange schema?

    Implements the paper's reduction: testing all elements of type [l]
    is the same as testing the single-function word [g_l] — a fresh
    invocable function whose output type is [tau_0 l] — with one extra
    depth level; one test per label reachable from the root. *)

type label_verdict = {
  label : string;
  safe : bool;
  reason : string option;  (** when not safe *)
}

type result = {
  compatible : bool;
  verdicts : label_verdict list;  (** one per reachable label *)
}

val reachable_labels :
  Axml_schema.Schema.env -> Axml_schema.Schema.t -> string -> string list
(** Labels reachable from the root through content models and through
    the input/output types of the functions and patterns they mention. *)

val check :
  ?k:int -> ?predicate:(string -> string -> bool) ->
  s0:Axml_schema.Schema.t -> root:string ->
  target:Axml_schema.Schema.t -> unit -> result

val compatible :
  ?k:int -> ?predicate:(string -> string -> bool) ->
  s0:Axml_schema.Schema.t -> root:string ->
  target:Axml_schema.Schema.t -> unit -> bool
