(* Executing a word-level rewriting against real services (steps 19-23 of
   Figure 3 and steps 7-10 of Figure 9).

   The materializer walks the concrete children forest left-to-right
   while tracking the corresponding node of the solved game: a
   (position, target-DFA state) pair of a win-table run, or a product
   node of the reference engines. At every function occurrence the
   strategy decides between the two fork options:
     - SAFE mode follows only winning (unmarked) nodes; the game
       guarantees the walk cannot get stuck, whatever the services
       return;
     - POSSIBLE mode follows only live nodes and *backtracks* when a
       call's actual return value leaves every live path (Figure 9c).
   A call is invoked at most once per occurrence: its result is cached,
   so backtracking re-examines recorded outputs rather than re-firing
   side effects. Invocations are reported in chronological order.

   Failure is a value, not an exception: the engine sits on a live
   exchange path where services time out, crash and break their WSDL
   contracts, so [run] returns a typed report instead of escaping. A
   service exception marks that fork option as unavailable (the walk
   still backtracks to sibling options — a safe verdict guarantees every
   remaining good path); if no path survives, the first service error is
   reported. A failed SAFE walk identifies the contract-breaking
   invocation by re-validating every cached result against its declared
   output type, rather than blaming an arbitrary one. *)

module Symbol = Axml_schema.Symbol
module Auto = Axml_schema.Auto
module Metrics = Axml_obs.Metrics
module Trace = Axml_obs.Trace

let m_invocation result =
  Metrics.counter ~help:"Service invocations fired by the materializer"
    ~labels:[ ("status", result) ]
    "axml_execute_invocations_total"

let m_invoke_ok = m_invocation "ok"
let m_invoke_error = m_invocation "error"

let m_fork choice =
  Metrics.counter
    ~help:"Fork options attempted at invoke/keep choice points"
    ~labels:[ ("choice", choice) ]
    "axml_execute_fork_choices_total"

let m_fork_keep = m_fork "keep"
let m_fork_invoke = m_fork "invoke"

let m_runs outcome =
  Metrics.counter ~help:"Materialization walks, by result"
    ~labels:[ ("outcome", outcome) ]
    "axml_execute_runs_total"

let m_runs_ok = m_runs "ok"
let m_runs_failed = m_runs "failed"

let m_reenforce result =
  Metrics.counter
    ~help:"Returned forests re-enforced against the remaining depth budget"
    ~labels:[ ("result", result) ]
    "axml_execute_reenforcements_total"

let m_reenforce_ok = m_reenforce "ok"
let m_reenforce_refused = m_reenforce "refused"

type invoker = string -> Document.forest -> Document.forest

exception Invocation_failed of { fname : string; attempts : int; cause : exn }

type invocation = {
  inv_name : string;
  inv_params : Document.forest;
  inv_result : Document.forest;
}

type strategy =
  | Follow_table of Win.run
  | Follow_safe of Marking.t
  | Follow_possible of Possible.t

type failure =
  | Ill_typed_output of invocation
  | Unrewritable_output of invocation
  | Service_error of { fname : string; attempts : int; cause : exn }
  | No_possible_path
  | Invariant_violation of string

let pp_failure ppf = function
  | Ill_typed_output inv ->
    Fmt.pf ppf "service %s returned a value outside its declared output type"
      inv.inv_name
  | Unrewritable_output inv ->
    Fmt.pf ppf
      "service %s returned a value that cannot be rewritten into the target \
       within the remaining depth budget"
      inv.inv_name
  | Service_error { fname; attempts; cause } ->
    Fmt.pf ppf "service %s failed after %d attempt(s): %s" fname attempts
      (Printexc.to_string cause)
  | No_possible_path ->
    Fmt.string ppf "every possible rewriting path died on the actual answers"
  | Invariant_violation msg -> Fmt.pf ppf "internal invariant violated: %s" msg

type outcome = {
  materialized : Document.forest;
  invocations : invocation list;
}

(* What the walk needs of a strategy, over its own nodes: product
   nodes for the reference engines, (position, DFA state) pairs for the
   win tables. For an item of symbol [sym] at node [n],
   [exists_keep n sym f] applies [f] to each keep move's target in edge
   order until one succeeds, and [exists_fork n sym f] applies
   [f callee start] to each invoke option among those edges; [stop
   ~enter n] says [n] ends the copy [enter] started, and [leave n]
   returns from it. *)
type 'n game = {
  good : 'n -> bool;
  has_fork : 'n -> Symbol.t -> bool;
  exists_keep : 'n -> Symbol.t -> ('n -> bool) -> bool;
  exists_fork : 'n -> Symbol.t -> (string -> 'n -> bool) -> bool;
  stop : enter:'n -> 'n -> bool;
  leave : 'n -> 'n option;
  complete : 'n -> bool;
  accepting : 'n -> bool;
}

let table_game =
  { good = Win.good;
    has_fork = Win.has_fork;
    exists_keep = Win.exists_keep;
    exists_fork = Win.exists_fork;
    stop = Win.copy_done;
    leave = Win.leave;
    complete = Win.complete;
    accepting = Win.accepting }

let product_game p good =
  let fork = Product.fork p in
  let q_of nid = (Product.node p nid).Product.q in
  let step nid eid =
    let succs = Product.succ p nid in
    let n = Array.length succs in
    let rec find i =
      if i >= n then assert false
      else if Product.succ_edge p nid i = eid then succs.(i)
      else find (i + 1)
    in
    find 0
  in
  (* the fork whose copy starts or ends at an A_w^k state, -1 *)
  let copy_fork = Array.make fork.Fork_automaton.nstates (-1) in
  Array.iteri
    (fun fid (f : Fork_automaton.fork) ->
      copy_fork.(fork.Fork_automaton.edge_dst.(f.Fork_automaton.invoke_edge)) <- fid;
      Auto.Int_set.iter (fun q -> copy_fork.(q) <- fid) f.Fork_automaton.copy_finals)
    fork.Fork_automaton.forks;
  (* the edges leaving [nid] labeled [sym], in out-edge order *)
  let exists_edge nid sym visit =
    let q = q_of nid in
    let last = fork.Fork_automaton.out_off.(q + 1) - 1 in
    let rec go i =
      i <= last
      && begin
        let eid = fork.Fork_automaton.out_edge.(i) in
        (match fork.Fork_automaton.edge_label.(eid) with
         | Some s -> Symbol.equal s sym && visit eid
         | None -> false)
        || go (i + 1)
      end
    in
    go fork.Fork_automaton.out_off.(q)
  in
  (* the fork whose keep option is [eid] *)
  let keep_fork eid =
    match Fork_automaton.fork_of_edge fork eid with
    | Some f when eid = f.Fork_automaton.keep_edge -> Some f
    | Some _ | None -> None
  in
  { good;
    has_fork = (fun nid sym -> exists_edge nid sym (fun eid -> keep_fork eid <> None));
    exists_keep = (fun nid sym f -> exists_edge nid sym (fun eid -> f (step nid eid)));
    exists_fork =
      (fun nid sym f ->
        exists_edge nid sym (fun eid ->
            match keep_fork eid with
            | Some fk ->
              f fk.Fork_automaton.fname (step nid fk.Fork_automaton.invoke_edge)
            | None -> false));
    stop =
      (fun ~enter nid ->
        Auto.Int_set.mem (q_of nid)
          fork.Fork_automaton.forks.(copy_fork.(q_of enter)).Fork_automaton.copy_finals);
    leave =
      (fun nid ->
        let q = q_of nid in
        let fid = copy_fork.(q) in
        if fid < 0 then None
        else
          Option.map (step nid)
            (Fork_automaton.exit_edge fork fork.Fork_automaton.forks.(fid) q));
    complete = (fun nid -> q_of nid = fork.Fork_automaton.final);
    accepting = Product.good_accepting p }

(* [run strategy invoker items] materializes the forest [items].

   [plan] optionally estimates, per product node, the remaining
   invocation fees (e.g. [Cost.possible_costs]); when given, the
   alternatives at each choice point are tried cheapest-estimate first
   instead of the default keep-first order — the cost minimization of
   Figure 3 step 23 / Figure 9 step d. [fee] prices an invoke option's
   immediate cost (default free).

   [validate fname forest] decides whether [forest] is an output
   instance of [fname]'s declared type; it is only consulted post
   mortem, to identify the offending invocation of a failed SAFE walk.

   [reenforce fname returned] rewrites a service's raw return value
   against the remaining depth budget (the k-bounded game needs results
   of round-r invocations to themselves land in the target within k-r
   further rounds). [Some enforced] replaces the raw forest in the
   walk; [None] means the result cannot be rewritten — the fork option
   is treated as unavailable and the walk backtracks, exactly like a
   downed service. Without [reenforce] results are spliced as returned
   (the paper's footnote-5 behaviour, correct only at k = 1). *)
let run ?plan ?(fee = fun _ -> 0.) ?validate ?reenforce strategy invoker
    (items : Document.forest) : (outcome, failure) result =
  let invocations = ref [] in
  let service_error = ref None in
  let reenforce_refused = ref None in
  let cache : (int, ((int * Document.t) list, unit) result) Hashtbl.t =
    Hashtbl.create 8
  in
  let counter = ref 0 in
  let wrap forest =
    List.map (fun d -> incr counter; (!counter, d)) forest
  in
  let record_error fname attempts cause =
    if !service_error = None then
      service_error := Some (Service_error { fname; attempts; cause })
  in
  let invoke_once id fname params =
    match Hashtbl.find_opt cache id with
    | Some r -> r
    | None ->
      let r =
        match invoker fname params with
        | returned -> (
          invocations :=
            { inv_name = fname; inv_params = params; inv_result = returned }
            :: !invocations;
          Metrics.inc m_invoke_ok;
          if Trace.enabled Trace.default then
            Trace.emit (Invocation { fname; attempts = 0; ok = true });
          match reenforce with
          | None -> Ok (wrap returned)
          | Some re -> (
            (* The raw invocation is already recorded above — the
               re-enforcement verdict only decides whether this fork
               option stays on the table. *)
            match re fname returned with
            | Some enforced ->
              Metrics.inc m_reenforce_ok;
              Ok (wrap enforced)
            | None ->
              Metrics.inc m_reenforce_refused;
              if !reenforce_refused = None then
                reenforce_refused :=
                  Some
                    (Unrewritable_output
                       { inv_name = fname; inv_params = params;
                         inv_result = returned });
              Error ()
            | exception ((Stack_overflow | Out_of_memory) as fatal) ->
              raise fatal
            | exception cause ->
              (* A genuine fault inside nested materialization: classify
                 like any service failure so blame lands on a service,
                 not on the verdict. *)
              record_error fname 1 cause;
              Metrics.inc m_invoke_error;
              Error ()))
        | exception Invocation_failed { fname; attempts; cause } ->
          record_error fname attempts cause;
          Metrics.inc m_invoke_error;
          if Trace.enabled Trace.default then
            Trace.emit (Invocation { fname; attempts; ok = false });
          Error ()
        | exception ((Stack_overflow | Out_of_memory) as fatal) -> raise fatal
        | exception cause ->
          record_error fname 1 cause;
          Metrics.inc m_invoke_error;
          if Trace.enabled Trace.default then
            Trace.emit (Invocation { fname; attempts = 1; ok = false });
          Error ()
      in
      Hashtbl.add cache id r;
      r
  in
  (* [walk game initial plan] runs the one materialization walk over
     the strategy's nodes: [process items n stop k] consumes [items]
     from node [n]; when they are exhausted it requires [stop n] and
     calls [k emitted n_end]. It returns true as soon as one
     alternative succeeds. *)
  let walk : type n. n game -> n -> (n -> float) option -> bool * Document.forest option =
   fun g initial plan ->
    let rec process items n stop k =
      match items with
      | [] -> stop n && k [] n
      | (id, item) :: rest ->
        let sym = Document.symbol item in
        (* fork-choice accounting only where a genuine choice exists *)
        let at_fork = g.has_fork n sym in
        let try_keep tgt =
          if at_fork then begin
            Metrics.inc m_fork_keep;
            if Trace.enabled Trace.default then
              let fname =
                match sym with Symbol.Fun f -> f | _ -> Symbol.to_string sym
              in
              Trace.emit (Fork_choice { fname; choice = "keep" })
          end;
          g.good tgt
          && process rest tgt stop (fun emitted n' -> k (item :: emitted) n')
        in
        let try_invoke callee enter =
          Metrics.inc m_fork_invoke;
          if Trace.enabled Trace.default then
            Trace.emit (Fork_choice { fname = callee; choice = "invoke" });
          g.good enter
          && begin
            let params = Document.children item in
            match invoke_once id callee params with
            | Error () -> false  (* the service is down: this option is out *)
            | Ok wrapped ->
              process wrapped enter (g.stop ~enter) (fun inner n_end ->
                  match g.leave n_end with
                  | None -> false
                  | Some exit ->
                    g.good exit
                    && process rest exit stop (fun emitted n' ->
                           k (inner @ emitted) n'))
          end
        in
        (match plan with
         | None ->
           (* default greedy order: prefer not invoking — fewer side
              effects, and free *)
           g.exists_keep n sym try_keep || g.exists_fork n sym try_invoke
         | Some estimate ->
           (* cost-guided order: cheapest estimated remainder first *)
           let candidates = ref [] in
           let collect c = candidates := c :: !candidates; false in
           ignore (g.exists_keep n sym (fun tgt -> collect (estimate tgt, `Keep tgt)));
           ignore
             (g.exists_fork n sym (fun callee enter ->
                  collect (fee callee +. estimate enter, `Invoke (callee, enter))));
           let ordered =
             List.stable_sort (fun (c1, _) (c2, _) -> Float.compare c1 c2)
               (List.rev !candidates)
           in
           List.exists
             (fun (_, move) ->
               match move with
               | `Keep tgt -> try_keep tgt
               | `Invoke (callee, enter) -> try_invoke callee enter)
             ordered)
    in
    let result = ref None in
    let ok =
      g.good initial
      && process (wrap items) initial g.complete (fun emitted n ->
             if g.accepting n then begin
               result := Some emitted;
               true
             end
             else false)
    in
    (ok, !result)
  in
  let (ok, result), possible =
    match strategy with
    | Follow_table r -> (walk table_game (Win.initial r) None, Win.kind r = Win.Possible)
    | Follow_safe m ->
      let p = m.Marking.product in
      ( walk (product_game p (fun nid -> not (Marking.is_marked m nid))) (Product.initial p)
          plan,
        false )
    | Follow_possible pos ->
      let p = pos.Possible.product in
      (walk (product_game p (Possible.is_live pos)) (Product.initial p) plan, true)
  in
  if ok then begin
    Metrics.inc m_runs_ok;
    match result with
    | Some materialized -> Ok { materialized; invocations = List.rev !invocations }
    | None -> Error (Invariant_violation "walk accepted without a result")
  end
  else begin
    Metrics.inc m_runs_failed;
    Error
      (match !service_error with
       | Some f -> f  (* no surviving path once the broken calls are out *)
       | None ->
         match !reenforce_refused with
         | Some f -> f  (* a result no remaining budget could rewrite *)
         | None ->
         if possible then No_possible_path
         else begin
           (* A safe verdict cannot fail unless a service broke its
              contract: find the offending invocation by re-validating
              every cached result against its declared output type. *)
           let chronological = List.rev !invocations in
           (match validate with
            | Some valid ->
              (match
                 List.find_opt
                   (fun inv -> not (valid inv.inv_name inv.inv_result))
                   chronological
               with
               | Some inv -> Ill_typed_output inv
               | None ->
                 Invariant_violation
                   (Fmt.str
                      "safe walk failed although all %d recorded output(s) \
                       validate against their declared types"
                      (List.length chronological)))
            | None ->
              (* no validator: word-level blame — the walk stopped at the
                 most recent invocation *)
              (match !invocations with
               | inv :: _ -> Ill_typed_output inv
               | [] ->
                 Invariant_violation
                   "safe walk failed before any service was invoked"))
         end)
  end
