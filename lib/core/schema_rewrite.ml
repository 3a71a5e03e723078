(* Schema-to-schema safe rewriting (Section 6): can EVERY document of the
   sender schema [s0] (rooted at [root]) be safely rewritten into the
   exchange schema [target]?

   The paper's reduction: testing that all elements of type [l] rewrite
   safely is the same as testing that the single-function word [g_l] —
   where [g_l] is a fresh invocable function whose output type is
   tau_0(l) — rewrites safely, with one extra depth level to pay for the
   synthetic call. The adversary's expansion of [g_l] enumerates exactly
   the children words an instance of [l] may have. One test per label of
   [s0] reachable from the root suffices. *)

module R = Axml_regex.Regex
module Schema = Axml_schema.Schema
module Symbol = Axml_schema.Symbol

type label_verdict = {
  label : string;
  safe : bool;
  reason : string option;
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

(* A fresh name that collides with nothing declared. *)
let fresh_name env base =
  let rec go i =
    let candidate = Fmt.str "%s#%d" base i in
    if Schema.String_map.mem candidate env.Schema.env_functions then go (i + 1)
    else candidate
  in
  go 0

let check ?(k = 1) ?predicate ~(s0 : Schema.t)
    ~root ~(target : Schema.t) () : result =
  (* one merged environment for the whole check: [verdict_of_label] only
     needs it for fresh-name collision avoidance, so recompiling it per
     label (as each verdict used to) was pure waste *)
  let env = Schema.env_of_schemas ?predicate s0 target in
  let verdict_of_label label =
    match Schema.find_element s0 label with
    | None ->
      { label; safe = false;
        reason = Some (Fmt.str "label %S is not declared by the sender schema" label) }
    | Some content0 ->
      (match Schema.find_element target label with
       | None ->
         { label; safe = false;
           reason =
             Some (Fmt.str "label %S is not part of the exchange schema" label) }
       | Some _ ->
         (* extend s0 with the representative function g_label *)
         let gname = fresh_name env ("g_" ^ label) in
         let g = Schema.func gname ~input:Axml_regex.Regex.epsilon ~output:content0 in
         let s0' = Schema.add_function s0 g in
         let contract =
           Contract.create ~k:(k + 1) ?predicate ~s0:s0' ~target ()
         in
         (match Contract.element_regex contract label with
          | None ->
            { label; safe = false;
              reason = Some "exchange schema content model missing" }
          | Some target_regex ->
            let word = [ Symbol.Fun gname ] in
            if Contract.is_safe contract ~target_regex word then
              { label; safe = true; reason = None }
            else
              { label; safe = false;
                reason =
                  Some
                    (Fmt.str
                       "some children word of <%s> allowed by the sender schema \
                        cannot be safely rewritten" label) }))
  in
  let labels = reachable_labels env s0 root in
  let verdicts = List.map verdict_of_label labels in
  { compatible = List.for_all (fun v -> v.safe) verdicts; verdicts }

let compatible ?k ?predicate ~s0 ~root ~target () =
  (check ?k ?predicate ~s0 ~root ~target ()).compatible
