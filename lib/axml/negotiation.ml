(* Exchange-schema negotiation — the "negotiator" extension sketched in
   the paper's conclusion: before exchanging data, two peers agree on an
   intensional exchange schema. The sender walks the receiver's
   preference-ordered proposals and picks the first one that all its
   documents can be safely rewritten into (the schema-level test of
   Section 6). *)

module Schema = Axml_schema.Schema
module Contract = Axml_core.Contract
module Schema_rewrite = Axml_core.Schema_rewrite

type proposal = {
  name : string;         (* a human-readable tag, e.g. "fully-materialized" *)
  schema : Schema.t;
}

type rejection = {
  proposal : string;
  verdicts : Schema_rewrite.label_verdict list;  (* why it was rejected *)
}

type agreement = {
  chosen : proposal;
  rejected : rejection list;  (* the proposals tried before, in order *)
}

(* [negotiate ~s0 ~root proposals] returns the first compatible proposal
   together with the reasons the earlier ones failed, or the full
   rejection list when none fits. *)
let negotiate ?k ?predicate ~(s0 : Schema.t) ~root
    (proposals : proposal list) : (agreement, rejection list) result =
  let rec go rejected = function
    | [] -> Error (List.rev rejected)
    | p :: rest ->
      let result =
        Schema_rewrite.check ~root
          (Contract.create ?k ?predicate ~s0 ~target:p.schema ())
      in
      if result.Schema_rewrite.compatible then
        Ok { chosen = p; rejected = List.rev rejected }
      else
        let bad =
          List.filter
            (fun v -> v.Schema_rewrite.v_verdict <> Contract.Safe)
            result.Schema_rewrite.verdicts
        in
        go ({ proposal = p.name; verdicts = bad } :: rejected) rest
  in
  go [] proposals

let pp_rejection ppf r =
  Fmt.pf ppf "%s: %a" r.proposal
    Fmt.(
      list ~sep:(any "; ")
        (fun ppf (v : Schema_rewrite.label_verdict) ->
          Fmt.pf ppf "%s (%s)" v.Schema_rewrite.v_label
            (Option.value ~default:"?" v.Schema_rewrite.v_reason)))
    r.verdicts
