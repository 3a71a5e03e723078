(** Policy combinators: derive exchange schemas encoding the
    materialization policies of the paper's introduction. The paper's
    insight is that performance, capabilities, security and
    functionalities all reduce to {e which} function symbols the
    exchange schema still allows; these combinators compute such schemas
    from a base schema. *)

exception Empty_content of string
(** A content model became unsatisfiable: the policy is inconsistent
    with the schema (the offending label is reported). *)

val extensional : Axml_schema.Schema.t -> Axml_schema.Schema.t
(** CAPABILITIES / SECURITY: no function node may remain — the sender
    must fully materialize. *)

val restrict_functions :
  trust:(string -> bool) -> Axml_schema.Schema.t -> Axml_schema.Schema.t
(** SECURITY: only calls to trusted functions (or patterns, by name) may
    remain in exchanged documents. *)

val preserve_functions :
  keep:(string -> bool) -> Axml_schema.Schema.t -> Axml_schema.Schema.t
(** FUNCTIONALITIES: the listed functions must NOT be materialized —
    they are marked non-invocable, so no legal rewriting fires them. *)
