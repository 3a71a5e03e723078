(* The full rewriting engine of Sections 3-5: given a document (or a
   word) of the sender schema [s0] and an agreed exchange schema
   [target], decide safe / possible rewritability and materialize the
   document accordingly.

   Since the analysis of a children word depends only on the contract
   (schemas, k) and the word itself, the engine is a thin view
   over [Contract]: every word-level question is one pass over the
   contract's win tables, whose entries any word — across the nodes of
   one document or across a stream of documents against the same
   schema pair — shares.

   Tree algorithm (Section 4): parameters of function nodes are handled
   before the functions themselves (the recursion below materializes a
   node's interior — parameter subtrees included — before rewriting its
   children word, which yields exactly the paper's deepest-first order),
   and every node's children word is rewritten against the content model
   of its type.

   Depth bookkeeping (Definition 7): the walk carries the remaining
   rewriting budget. The top of the document is enforced at the
   contract's k; a forest returned by a round-r invocation is
   re-enforced at depth k-r via [Execute.run]'s [reenforce] hook —
   its nodes' children words must themselves land in the target within
   the remaining rounds. At depth 1 returned forests are spliced in
   as-is (footnote 5: since s0 and the exchange schema agree on
   function signatures, returned data needs no further *word-level*
   rewriting — but its children may still embed calls the target
   forbids, which is exactly the k=1 enforcement gap k>1 closes). *)

module Schema = Axml_schema.Schema
module Symbol = Axml_schema.Symbol

(* A rewriter is its contract: every compiled artifact it reads (the
   target's content models, their DFAs, the output types a cached
   service result is re-validated against) sits in [Contract.ctx],
   which never changes, so the per-node lookups of the tree walks take
   no lock. *)
type t = Contract.t

let of_contract contract = contract

let create ?(k = 1) ?predicate ~s0 ~target () =
  of_contract (Contract.create ~k ?predicate ~s0 ~target ())

let contract t = t

let env = Contract.env

(* ------------------------------------------------------------------ *)
(* Tree-level verdicts                                                 *)
(* ------------------------------------------------------------------ *)

type reason =
  | Unknown_element of string
  | Unknown_function of string
  | Unsafe_word of { context : string; word : Symbol.t list }
  | Impossible_word of { context : string; word : Symbol.t list }
  | Root_mismatch of { expected : string; found : string }
  | Execution_failed of { context : string }
  | Unrewritable_output of { context : string; fname : string }
  | Ill_typed_service of { context : string; fname : string }
  | Service_failure of
      { context : string; fname : string; attempts : int; message : string }
  | Invariant_failure of { context : string; detail : string }
  | Invalid_root_forest of { width : int }
  | Not_instance of { detail : string }

type failure = { at : Document.path; reason : reason }

let pp_word = Fmt.(list ~sep:(any ".") Symbol.pp)

let pp_reason ppf = function
  | Unknown_element l ->
    Fmt.pf ppf "element type %S is not part of the exchange schema" l
  | Unknown_function f -> Fmt.pf ppf "function %S has no known signature" f
  | Unsafe_word { context; word } ->
    Fmt.pf ppf "children of %s (%a) cannot be safely rewritten" context pp_word word
  | Impossible_word { context; word } ->
    Fmt.pf ppf "children of %s (%a) cannot possibly be rewritten" context pp_word word
  | Root_mismatch { expected; found } ->
    Fmt.pf ppf "root is <%s> but the exchange schema requires <%s>" found expected
  | Execution_failed { context } ->
    Fmt.pf ppf "a possible rewriting of the children of %s failed at run time" context
  | Unrewritable_output { context; fname } ->
    Fmt.pf ppf
      "service %s (invoked while rewriting the children of %s) returned data \
       that cannot be rewritten within the remaining depth budget"
      fname context
  | Ill_typed_service { context; fname } ->
    Fmt.pf ppf
      "service %s broke its output contract while rewriting the children of %s"
      fname context
  | Service_failure { context; fname; attempts; message } ->
    Fmt.pf ppf
      "service %s failed after %d attempt(s) while rewriting the children of \
       %s: %s"
      fname attempts context message
  | Invariant_failure { context; detail } ->
    Fmt.pf ppf "internal invariant violated at %s: %s" context detail
  | Invalid_root_forest { width } ->
    Fmt.pf ppf
      "pre-materializing the root call returned a forest of %d nodes instead \
       of a single document root"
      width
  | Not_instance { detail } -> Fmt.string ppf detail

let pp_failure ppf f =
  Fmt.pf ppf "%a: %a" Document.pp_path f.at pp_reason f.reason

(* A fault is the environment's fault (service misbehaviour or an engine
   invariant breach), as opposed to a genuine rewritability verdict. *)
let reason_is_fault = function
  | Ill_typed_service _ | Service_failure _ | Invariant_failure _
  | Invalid_root_forest _ -> true
  | Unknown_element _ | Unknown_function _ | Unsafe_word _ | Impossible_word _
  | Root_mismatch _ | Execution_failed _ | Unrewritable_output _
  | Not_instance _ -> false

let failure_is_fault f = reason_is_fault f.reason

type mode = Win.kind = Safe | Possible

let unrewritable mode ~context word =
  match mode with
  | Safe -> Unsafe_word { context; word }
  | Possible -> Impossible_word { context; word }

(* A static violation as the rewriter's verdict: undeclared labels and
   functions and a wrong root map one to one, a children word outside
   its model is one no rewriting of [mode] saves. *)
let reason_of_violation mode = function
  | Validate.Unknown_label l -> Unknown_element l
  | Validate.Unknown_function f -> Unknown_function f
  | Validate.Root_mismatch { expected; found } -> Root_mismatch { expected; found }
  | Validate.Content_mismatch { label; word } ->
    unrewritable mode ~context:("<" ^ label ^ ">") word
  | Validate.Input_mismatch { fname; word } -> unrewritable mode ~context:(fname ^ "()") word

let root_failure mode t doc =
  match Validate.root_violation (Contract.ctx t) doc with
  | None -> None
  | Some { at; kind } -> Some { at; reason = reason_of_violation mode kind }

(* Static check: no invocation happens. Validation's walk finds the
   words outside their models, and only those reach the win tables; a
   word is built only for a failure. Returns the failures ([] = verdict
   holds), root first, then prefix order. *)
let static_failures mode t doc =
  let depth = Contract.k t in
  let visit rev_path node own _ acc =
    match own with
    | Some (m : Validate.model)
      when Validate.forest_accepted m.Validate.dfa (Document.children node)
           || Win.ok (Contract.forest_run t mode ~depth m (Document.children node)) -> acc
    | Some _ | None ->
      match Validate.node_violation node own with
      | None -> acc
      | Some kind -> { at = List.rev rev_path; reason = reason_of_violation mode kind } :: acc
  in
  List.rev
    (Validate.fold (Contract.ctx t) visit doc (Option.to_list (root_failure mode t doc)))

(* ------------------------------------------------------------------ *)
(* Materialization                                                     *)
(* ------------------------------------------------------------------ *)

type located_invocation = { at : Document.path; invocation : Execute.invocation }

exception Failed of failure

let () =
  Printexc.register_printer (function
    | Failed f -> Some (Fmt.str "Axml_core.Rewriter.Failed (%a)" pp_failure f)
    | _ -> None)

(* The context a failure names: the element or function whose children
   word it is. *)
let context_of ~fn name = if fn then name ^ "()" else "<" ^ name ^ ">"

(* The reversed path of child [i] of the node at reversed path [up]; the
   root is child -1 of the empty path. *)
let path_of up i = if i < 0 then up else i :: up

let rec all_data = function
  | [] -> true
  | Document.Data _ :: rest -> all_data rest
  | (Document.Elem _ | Document.Call _) :: _ -> false

(* One materialization: what every node of its walk reads, the
   invocations so far, latest first, and the remaining depth and
   reversed path of the children word being walked, which its
   re-enforcements read. *)
type walk = {
  mode : mode;
  contract : t;
  invoker : Execute.invoker;
  mutable invocations : located_invocation list;
  mutable depth : int;
  mutable path : int list;
}

(* Locates the frame's invocations [i ..] at [at], latest first, before
   [w.invocations]. *)
let rec locate w r at i =
  if i < Win.calls r then begin
    w.invocations <- { at; invocation = Execute.invocation r i } :: w.invocations;
    locate w r at (i + 1)
  end

(* The service the walks below call: its [call] re-enforces through the
   walk's own functions. A [let rec] that bound this record together
   with them would compile every function of the group as an unknown
   call, so the record reaches its [call] through this reference, set
   once, below the group. *)
let call_fwd : (walk -> Win.run -> string -> Document.forest -> Document.forest) ref =
  ref (fun _ _ _ _ -> invalid_arg "Rewriter.service")

let service = { Win.chosen = Execute.chosen; call = (fun w r fname params -> !call_fwd w r fname params) }

(* Puts back the depth and path of a walk after an answer was
   re-enforced; an answer whose words needed no walk of their own
   changed neither. *)
let restore w depth path =
  w.depth <- depth;
  if w.path != path then w.path <- path

(* A node is child [i] of the node at reversed path [up]: its own path
   is consed only where it is read — a failure, an invocation, or
   children that are not all data. *)
let rec interior w depth up i (node : Document.t) : Document.t =
  match node with
  | Document.Data _ -> node
  | Document.Elem { label; children; _ } ->
    (match Validate.model_of_id (Contract.ctx w.contract) (Document.sym_id node) with
     | None -> raise (Failed { at = List.rev (path_of up i); reason = Unknown_element label })
     | Some m ->
       let children' = forest w depth up i ~fn:false label m children in
       if children' == children then node else Document.rebuild node children')
  | Document.Call { name; params; _ } ->
    (match Validate.model_of_id (Contract.ctx w.contract) (Document.sym_id node) with
     | None -> raise (Failed { at = List.rev (path_of up i); reason = Unknown_function name })
     | Some m ->
       let params' = forest w depth up i ~fn:true name m params in
       if params' == params then node else Document.rebuild node params')

(* materialize each child in place, preserving physical identity when
   nothing underneath changed so untouched subtrees are not rebuilt;
   [path] is the children's parent's *)
and interiors w depth path i (children : Document.forest) : Document.forest =
  match children with
  | [] -> children
  | c :: rest ->
    let c' = interior w depth path i c in
    let rest' = interiors w depth path (i + 1) rest in
    if c' == c && rest' == rest then children else c' :: rest'

and forest w depth up i ~fn name (m : Validate.model) (children : Document.forest) :
    Document.forest =
  (* deepest-first: materialize interiors (and hence parameters of
     function children) before rewriting this children word *)
  let children =
    if all_data children then children else interiors w depth (path_of up i) 0 children
  in
  (* fast path: a children word already in the target language needs
     no game and no walk — the keep-first walk would return it
     unchanged with zero invocations, so return it directly *)
  if Validate.forest_accepted m.Validate.dfa children then children
  else begin
    let r = Win.take () in
    match walked w r depth (path_of up i) ~fn name m children with
    | out ->
      Win.release r;
      out
    | exception e ->
      Win.release r;
      raise e
  end

(* The children word solved and walked in frame [r]. *)
and walked w r depth path ~fn name m children =
  Contract.solve_forest r w.contract w.mode ~depth m children;
  if not (Win.ok r) then
    raise
      (Failed
         { at = List.rev path;
           reason = unrewritable w.mode ~context:(context_of ~fn name) (Document.word children) });
  w.depth <- depth;
  w.path <- path;
  match Execute.follow r service w children with
  | out ->
    if Win.calls r > 0 then locate w r (List.rev path) 0;
    out
  | exception Win.Dead ->
    let at = List.rev path and context = context_of ~fn name in
    let reason =
      match Execute.failure ~validate:(Some (Contract.output_ok w.contract)) r with
      | Execute.No_possible_path -> Execution_failed { context }
      | Execute.Ill_typed_output inv ->
        Ill_typed_service { context; fname = inv.Execute.inv_name }
      | Execute.Unrewritable_output inv ->
        Unrewritable_output { context; fname = inv.Execute.inv_name }
      | Execute.Service_error { fname; attempts; cause } ->
        Service_failure
          { context; fname; attempts; message = Printexc.to_string cause }
      | Execute.Invariant_violation detail ->
        Invariant_failure { context; detail }
    in
    raise (Failed { at; reason })

(* The k-bounded hook: each node a call returned is rewritten against
   the depth that remains below the word being walked. A non-fault
   [Failed] from the nested walk is the verdict "this result cannot be
   rewritten", reported as [Execute.Refused] so the outer walk treats
   the option as unavailable and backtracks; faults re-raise and come
   back as service errors. The nested words set the depth and path for
   their own walks, so the outer ones are put back on every exit. *)
and reenforce w _fname returned =
  let depth = w.depth and path = w.path in
  match interiors w (depth - 1) path 0 returned with
  | enforced ->
    restore w depth path;
    enforced
  | exception Failed f when not (failure_is_fault f) ->
    restore w depth path;
    raise Execute.Refused
  | exception e ->
    restore w depth path;
    raise e

(* At depth 1 and below returned forests are spliced as returned. *)
and call w r fname params =
  if w.depth <= 1 then Execute.invoke r w.invoker fname params
  else Execute.invoke_reenforced r w.invoker reenforce w fname params

let () = call_fwd := call

(* Materialize [doc] so that it conforms to the exchange schema,
   invoking services through [invoker]. In [Safe] mode the rewriting is
   guaranteed (exception [Failed] means the document is not safely
   rewritable; [Execute.Ill_typed_output] means a service broke its
   WSDL contract). In [Possible] mode a run-time failure surfaces as
   [Failed { reason = Execution_failed _; _ }].

   [depth] is the remaining rewriting budget: the top of the document
   runs at the contract's k; every forest a
   service returns is re-enforced at [depth - 1] through [Execute]'s
   [reenforce] hook, so a round-r result must land in the target within
   the k-r rounds that remain. At depth <= 1 returned forests are
   spliced as-is (footnote 5). *)
let materialize ?(mode = Safe) t ~(invoker : Execute.invoker) (doc : Document.t) :
    (Document.t * located_invocation list, failure list) result =
  let top_k = Int.max 0 (Contract.k t) in
  match root_failure mode t doc with
  | Some f -> Error [ f ]
  | None ->
    let w = { mode; contract = t; invoker; invocations = []; depth = top_k; path = [] } in
    match interior w top_k [] (-1) doc with
    | doc' -> Ok (doc', List.rev w.invocations)
    | exception Failed f -> Error [ f ]

(* ------------------------------------------------------------------ *)
(* The mixed approach (Section 5)                                      *)
(* ------------------------------------------------------------------ *)

(* Invoke up-front every call whose function satisfies [eager_calls]
   (e.g. side-effect-free or cheap services), splice the actual results,
   then run the safe analysis on what remains. The actual outputs replace
   the "full signature automaton" by concrete words, shrinking A_w^k.

   Eager calls hit real services, so their failures come back through the
   same typed channel as materialization failures instead of escaping. *)
let pre_materialize t ~eager_calls ~(invoker : Execute.invoker) doc :
    (Document.t * located_invocation list, failure) result =
  let invocations = ref [] in
  let budget = ref (Int.max 1 (Contract.k t * 64)) in
  let env = env t in
  let rec node_forest path (node : Document.t) : Document.forest =
    match node with
    | Document.Data _ -> [ node ]
    | Document.Elem { children; _ } -> [ Document.rebuild node (forest path children) ]
    | Document.Call { name; params; _ } ->
      let params = forest path params in
      if eager_calls name && Schema.is_invocable env name && !budget > 0 then begin
        decr budget;
        let returned =
          match invoker name params with
          | returned -> returned
          | exception Execute.Invocation_failed { fname; attempts; cause } ->
            raise
              (Failed
                 { at = List.rev path;
                   reason =
                     Service_failure
                       { context = name ^ "()"; fname; attempts;
                         message = Printexc.to_string cause } })
          | exception ((Stack_overflow | Out_of_memory) as fatal) -> raise fatal
          | exception (Failed _ as reraise) -> raise reraise
          | exception cause ->
            raise
              (Failed
                 { at = List.rev path;
                   reason =
                     Service_failure
                       { context = name ^ "()"; fname = name; attempts = 1;
                         message = Printexc.to_string cause } })
        in
        invocations :=
          { at = List.rev path;
            invocation = { Execute.inv_name = name; inv_params = params;
                           inv_result = returned } }
          :: !invocations;
        forest path returned
      end
      else [ Document.rebuild node params ]
  and forest path children =
    List.concat (List.mapi (fun i c -> node_forest (i :: path) c) children)
  in
  match node_forest [] doc with
  | [ doc' ] -> Ok (doc', List.rev !invocations)
  | forest ->
    Error { at = []; reason = Invalid_root_forest { width = List.length forest } }
  | exception Failed f -> Error f

(* ------------------------------------------------------------------ *)
(* The unified static check                                            *)
(* ------------------------------------------------------------------ *)

type check_mode =
  | Check_safe
  | Check_possible
  | Check_mixed of {
      eager_calls : string -> bool;
      invoker : Execute.invoker;
    }

type check_report = {
  ok : bool;
  failures : failure list;
}

let check_mode_name = function
  | Check_safe -> "safe"
  | Check_possible -> "possible"
  | Check_mixed _ -> "mixed"

let m_checks mode ok =
  Axml_obs.Metrics.counter
    ~help:"Document-level check reports, by mode and verdict"
    ~labels:[ ("mode", mode); ("ok", if ok then "true" else "false") ]
    "axml_rewriter_checks_total"

let m_checks_table =
  List.concat_map
    (fun mode -> List.map (fun ok -> ((mode, ok), m_checks mode ok)) [ true; false ])
    [ "safe"; "possible"; "mixed" ]

let check ?(mode = Check_safe) t doc =
  let mode_name = check_mode_name mode in
  Axml_obs.Trace.with_span "rewriter.check" ~detail:(fun () -> mode_name)
  @@ fun () ->
  let failures =
    match mode with
    | Check_safe -> static_failures Safe t doc
    | Check_possible -> static_failures Possible t doc
    | Check_mixed { eager_calls; invoker } ->
      (match pre_materialize t ~eager_calls ~invoker doc with
       | Ok (doc', _pre) -> static_failures Safe t doc'
       | Error f -> [ f ])
  in
  let ok = failures = [] in
  Axml_obs.Metrics.inc (List.assoc (mode_name, ok) m_checks_table);
  { ok; failures }

(* ------------------------------------------------------------------ *)
(* Document-level minimal-k                                            *)
(* ------------------------------------------------------------------ *)

type doc_minimal = { safe_k : int option; possible_k : int option }

exception Hopeless

(* The static safe-at-k verdict requires *every* children word safe at
   k, so the document's minimum is the max over its words' minima
   (monotonicity makes the per-word minima well-defined). Unknown
   labels/functions and a root mismatch can never become rewritable at
   any depth, so they answer None/None. Every per-word query is a pass
   over the win tables of its depth. *)
let minimal_k t (doc : Document.t) =
  let hopeless = { safe_k = None; possible_k = None } in
  let ctx = Contract.ctx t in
  if Option.is_some (Validate.root_violation ctx doc) then hopeless
  else begin
    (* the larger of two minima, [None] when either word is hopeless;
       returns one of its arguments, so an unchanged minimum allocates
       nothing *)
    let join a b =
      match (a, b) with Some x, Some y -> if x >= y then a else b | _ -> None
    in
    let word _ node own _ acc =
      match own with
      | None -> raise Hopeless
      | Some (m : Validate.model) ->
        let w =
          Contract.minimal_k t ~target_regex:m.Validate.regex
            (Document.word (Document.children node))
        in
        let safe_k = join acc.safe_k w.Contract.safe_at
        and possible_k = join acc.possible_k w.Contract.possible_at in
        if safe_k == acc.safe_k && possible_k == acc.possible_k then acc
        else if safe_k = None && possible_k = None then raise Hopeless
        else { safe_k; possible_k }
    in
    match Validate.fold ctx word doc { safe_k = Some 0; possible_k = Some 0 } with
    | m -> m
    | exception Hopeless -> hopeless
  end
