(* Policy combinators: derive exchange schemas that encode the
   materialization policies of the paper's introduction. The insight of
   the paper is that all four considerations — performance, capabilities,
   security, functionalities — reduce to *which* function symbols the
   exchange schema still allows; these combinators compute such schemas
   from a base schema. *)

module R = Axml_regex.Regex
module Schema = Axml_schema.Schema

exception Empty_content of string

(* Rewrite every content model, replacing the atoms selected by [drop]
   with the empty language (so the alternatives that contained them
   simply disappear). Raises [Empty_content] when a content model would
   become unsatisfiable — the policy is then inconsistent with the
   schema. *)
let filter_atoms ~drop (s : Schema.t) : Schema.t =
  let rewrite_content name c =
    let c' = R.subst (fun a -> if drop a then R.empty else R.sym a) c in
    if R.is_empty_language c' then raise (Empty_content name);
    c'
  in
  let elements = Schema.String_map.mapi rewrite_content s.Schema.elements in
  { s with Schema.elements }

(* CAPABILITIES / SECURITY (receiver cannot or will not invoke anything):
   the exchange schema accepts no function node at all, forcing the
   sender to fully materialize. *)
let extensional s =
  filter_atoms s ~drop:(function
    | Schema.A_fun _ | Schema.A_pattern _ | Schema.A_any_fun -> true
    | Schema.A_label _ | Schema.A_data | Schema.A_any_element -> false)

(* SECURITY (trusted-services list): only calls to functions accepted by
   [trust] may remain in exchanged documents; everything else must be
   materialized away by the sender. Patterns are kept only if [trust]
   accepts the pattern name itself. *)
let restrict_functions ~trust s =
  filter_atoms s ~drop:(function
    | Schema.A_fun f -> not (trust f)
    | Schema.A_pattern p -> not (trust p)
    | Schema.A_any_fun -> true
    | Schema.A_label _ | Schema.A_data | Schema.A_any_element -> false)

(* FUNCTIONALITIES (the origin of the information is what is requested,
   e.g. a UDDI-like registry): the listed functions must NOT be
   materialized — mark them non-invocable so no legal rewriting fires
   them. *)
let preserve_functions ~keep s =
  let functions =
    Schema.String_map.mapi
      (fun name (f : Schema.func) ->
        if keep name then { f with Schema.f_invocable = false } else f)
      s.Schema.functions
  in
  { s with Schema.functions }
