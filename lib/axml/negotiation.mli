(** Exchange-schema negotiation — the "negotiator" extension sketched in
    the paper's conclusion: the sender walks the receiver's
    preference-ordered proposals and picks the first one that {e all}
    its documents can be safely rewritten into (the schema-level test of
    Section 6). *)

type proposal = {
  name : string;
  schema : Axml_schema.Schema.t;
}

type rejection = {
  proposal : string;
  verdicts : Axml_core.Schema_rewrite.label_verdict list;  (** why *)
}

type agreement = {
  chosen : proposal;
  rejected : rejection list;  (** proposals tried before, in order *)
}

val negotiate :
  ?k:int -> ?predicate:(string -> string -> bool) ->
  s0:Axml_schema.Schema.t -> root:string ->
  proposal list -> (agreement, rejection list) result

val pp_rejection : rejection Fmt.t
