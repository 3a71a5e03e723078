(* Schema-to-schema safe rewriting (Section 6): can EVERY document of a
   contract's sender schema (rooted at [root]) be safely rewritten into
   its exchange schema?

   The paper's reduction: testing that all elements of type [l] rewrite
   safely is the same as testing that the single-function word [g_l] —
   where [g_l] is an invocable function whose output type is tau_0(l) —
   rewrites safely, with one extra depth level to pay for the call. The
   adversary's expansion of [g_l] enumerates exactly the children words
   an instance of [l] may have. One test per label of s0 reachable from
   the root suffices; [Contract.content_minimal_k] runs it on the
   contract's own win tables, so [g_l] is never declared in a schema and
   no wildcard or pattern can match it. *)

module Schema = Axml_schema.Schema

type label_verdict = {
  v_label : string;
  v_verdict : Contract.verdict;
  v_safe_at : int option;
  v_possible_at : int option;
  v_reason : string option;
}

type result = {
  compatible : bool;
  verdicts : label_verdict list;  (* one per reachable label *)
}

(* Labels of [s0] reachable from [root]: through content models of
   elements, and through input/output types of the functions and
   patterns they mention (instances may embed calls whose parameters and
   results are also exchanged). *)
let reachable_labels env (s0 : Schema.t) root =
  let seen_labels = ref Schema.String_set.empty in
  let seen_funs = ref Schema.String_set.empty in
  let queue = Queue.create () in
  let add_label l =
    if not (Schema.String_set.mem l !seen_labels) then begin
      seen_labels := Schema.String_set.add l !seen_labels;
      Queue.add (`Label l) queue
    end
  in
  let add_fun f =
    if not (Schema.String_set.mem f !seen_funs) then begin
      seen_funs := Schema.String_set.add f !seen_funs;
      Queue.add (`Fun f) queue
    end
  in
  let visit_content c =
    List.iter
      (fun atom ->
        match atom with
        | Schema.A_label l -> add_label l
        | Schema.A_fun f -> add_fun f
        | Schema.A_pattern p ->
          (match Schema.String_map.find_opt p env.Schema.env_patterns with
           | None -> ()
           | Some pat ->
             List.iter
               (fun (f : Schema.func) -> add_fun f.Schema.f_name)
               (Schema.pattern_members env pat))
        | Schema.A_data -> ()
        | Schema.A_any_element ->
          Schema.String_set.iter add_label env.Schema.env_labels
        | Schema.A_any_fun ->
          Schema.String_map.iter (fun f _ -> add_fun f) env.Schema.env_functions)
      (Schema.atoms_of_content c)
  in
  add_label root;
  while not (Queue.is_empty queue) do
    match Queue.take queue with
    | `Label l ->
      (match Schema.find_element s0 l with
       | Some c -> visit_content c
       | None -> ())
    | `Fun f ->
      (match Schema.String_map.find_opt f env.Schema.env_functions with
       | None -> ()
       | Some func ->
         visit_content func.Schema.f_input;
         visit_content func.Schema.f_output)
  done;
  Schema.String_set.elements !seen_labels

let check contract ~root : result =
  let s0 = Contract.s0 contract in
  let unsafe label reason =
    { v_label = label; v_verdict = Contract.Impossible; v_safe_at = None;
      v_possible_at = None; v_reason = Some reason }
  in
  let verdict_of_label label =
    match (Schema.find_element s0 label, Contract.element_regex contract label) with
    | None, _ ->
      unsafe label (Fmt.str "label %S is not declared by the sender schema" label)
    | Some _, None ->
      unsafe label (Fmt.str "label %S is not part of the exchange schema" label)
    | Some content0, Some target_regex ->
      let m = Contract.content_minimal_k contract ~target_regex content0 in
      let verdict =
        match (m.Contract.safe_at, m.Contract.possible_at) with
        | Some _, _ -> Contract.Safe
        | None, Some _ -> Contract.Possible_only
        | None, None -> Contract.Impossible
      in
      { v_label = label; v_verdict = verdict; v_safe_at = m.Contract.safe_at;
        v_possible_at = m.Contract.possible_at;
        v_reason =
          (if verdict = Contract.Safe then None
           else
             Some
               (Fmt.str
                  "no left-to-right strategy safely rewrites every children \
                   word of <%s> the sender schema allows, deciding each \
                   call before the items after it are known" label)) }
  in
  let verdicts =
    List.map verdict_of_label (reachable_labels (Contract.env contract) s0 root)
  in
  { compatible = List.for_all (fun v -> v.v_verdict = Contract.Safe) verdicts;
    verdicts }

let compatible contract ~root = (check contract ~root).compatible
