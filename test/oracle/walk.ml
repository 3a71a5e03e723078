(* The generic strategy walk, with continuations: every item is tried
   through [keep] and [invoke] closures, and a continuation decides
   whether the node a forest ends on may end it. This is the reference
   production's first-order walk is checked against. *)

module Symbol = Axml_schema.Symbol
module Document = Axml_core.Document
open Axml_core.Execute

type 'n game = {
  good : 'n -> bool;
  has_fork : 'n -> Symbol.t -> bool;
  moves : 'n -> Symbol.t -> keep:('n -> bool) -> invoke:(string -> 'n -> bool) -> bool;
  leave : 'n -> 'n option;
  accepting : 'n -> bool;
}

(* A call is invoked at most once per occurrence: every item carries an
   occurrence id, and results are cached by it, so backtracking
   re-examines recorded outputs rather than re-firing side effects. *)
let walk ?validate ?reenforce ~possible g initial invoker (items : Document.forest) =
  let invocations = ref [] in
  let service_error = ref None in
  let reenforce_refused = ref None in
  let cache : (int, ((int * Document.t) list, unit) result) Hashtbl.t = Hashtbl.create 8 in
  let counter = ref 0 in
  let wrap forest = List.map (fun d -> incr counter; (!counter, d)) forest in
  let record_error fname attempts cause =
    if !service_error = None then service_error := Some (Service_error { fname; attempts; cause })
  in
  let invoke_once id fname params =
    match Hashtbl.find_opt cache id with
    | Some r -> r
    | None ->
      let r =
        match invoker fname params with
        | returned -> (
          invocations :=
            { inv_name = fname; inv_params = params; inv_result = returned } :: !invocations;
          match reenforce with
          | None -> Ok (wrap returned)
          | Some re -> (
            match re fname returned with
            | Some enforced -> Ok (wrap enforced)
            | None ->
              if !reenforce_refused = None then
                reenforce_refused :=
                  Some
                    (Unrewritable_output
                       { inv_name = fname; inv_params = params; inv_result = returned });
              Error ()
            | exception ((Stack_overflow | Out_of_memory) as fatal) -> raise fatal
            | exception cause ->
              record_error fname 1 cause;
              Error ()))
        | exception Invocation_failed { fname; attempts; cause } ->
          record_error fname attempts cause;
          Error ()
        | exception ((Stack_overflow | Out_of_memory) as fatal) -> raise fatal
        | exception cause ->
          record_error fname 1 cause;
          Error ()
      in
      Hashtbl.add cache id r;
      r
  in
  (* [process items n k] consumes [items] from node [n], then calls
     [k emitted n_end], which decides whether [n_end] may end them: only
     at a copy's final position for a service's answer, only accepting
     for the whole word. It returns true as soon as one alternative
     succeeds. *)
  let rec process items n k =
    match items with
    | [] -> k [] n
    | (id, item) :: rest ->
      let sym = Document.symbol item in
      let keep tgt = g.good tgt && process rest tgt (fun emitted n' -> k (item :: emitted) n') in
      let invoke callee enter =
        g.good enter
        &&
        match invoke_once id callee (Document.children item) with
        | Error () -> false
        | Ok wrapped ->
          process wrapped enter (fun inner n_end ->
              match g.leave n_end with
              | None -> false
              | Some exit -> g.good exit && process rest exit (fun emitted n' -> k (inner @ emitted) n'))
      in
      g.moves n sym ~keep ~invoke
  in
  let result = ref None in
  let ok =
    g.good initial
    && process (wrap items) initial (fun emitted n ->
           g.accepting n
           && begin
             result := Some emitted;
             true
           end)
  in
  match ok, !result with
  | true, Some materialized -> Ok { materialized; invocations = List.rev !invocations }
  | true, None -> Error (Invariant_violation "walk accepted without a result")
  | false, _ ->
    Error
      (match !service_error, !reenforce_refused with
       | Some f, _ | None, Some f -> f
       | None, None ->
         if possible then No_possible_path
         else
           let chronological = List.rev !invocations in
           match validate with
           | Some valid -> (
             match List.find_opt (fun inv -> not (valid inv.inv_name inv.inv_result)) chronological with
             | Some inv -> Ill_typed_output inv
             | None ->
               Invariant_violation
                 (Fmt.str
                    "safe walk failed although all %d recorded output(s) validate against \
                     their declared types"
                    (List.length chronological)))
           | None -> (
             match !invocations with
             | inv :: _ -> Ill_typed_output inv
             | [] -> Invariant_violation "safe walk failed before any service was invoked"))
