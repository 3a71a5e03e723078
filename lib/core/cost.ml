(* Invocation-cost planning: the paper asks the extracted rewriting to
   "minimize the rewriting cost, [choosing] a path with minimal
   number/cost of function invocations" (Figure 3 step 23 and Figure 9
   step d). This module computes those optima on the product game:

   - POSSIBLE mode: the cheapest total fee of an accepting path
     (Dijkstra; invoke epsilon-edges weigh the service fee, every other
     edge is free). The per-node values can order execution choices.

   - SAFE mode: the guaranteed worst-case fee bound of the rewriter's
     best strategy: adversary (service outputs) maximizes, the rewriter
     minimizes at forks. Cycles controlled by the adversary can make the
     bound infinite (e.g. a starred output type whose elements must all
     be invoked): the value iteration detects divergence and reports
     [infinity]. *)

module Auto = Axml_schema.Auto

type fn = string -> float

(* Weight of a product move along A_w^k edge [eid]: the service fee when
   the edge is the invoke option of a fork. *)
let edge_weight fork ~cost eid =
  match Fork_automaton.fork_of_edge fork eid with
  | Some f when eid = f.Fork_automaton.invoke_edge -> cost f.Fork_automaton.fname
  | Some _ | None -> 0.

(* ------------------------------------------------------------------ *)
(* Possible mode: single-source shortest path                          *)
(* ------------------------------------------------------------------ *)

module Pq = Set.Make (struct
  type t = float * int
  let compare = compare
end)

(* [possible_costs pos ~cost] returns [dist], the minimal fee needed to
   reach acceptance from each discovered product node ([infinity] when
   none is reachable). *)
let possible_costs (pos : Possible.t) ~(cost : fn) : int -> float =
  let p = pos.Possible.product in
  let fork = Product.fork p in
  (* forward exploration to enumerate nodes and build reverse edges *)
  let rev : (int, (int * float) list ref) Hashtbl.t = Hashtbl.create 256 in
  let seen = Bitvec.create () in
  let goals = ref [] in
  let queue = Queue.create () in
  let discover nid =
    if not (Bitvec.get seen nid) then begin
      Bitvec.set seen nid;
      if Product.good_accepting p nid then goals := nid :: !goals;
      Queue.add nid queue
    end
  in
  discover (Product.initial p);
  while not (Queue.is_empty queue) do
    let nid = Queue.take queue in
    if not (Product.subset_is_dead p nid) then
      Array.iteri
        (fun i tgt ->
          let w = edge_weight fork ~cost (Product.succ_edge p nid i) in
          let l =
            match Hashtbl.find_opt rev tgt with
            | Some l -> l
            | None ->
              let l = ref [] in
              Hashtbl.add rev tgt l;
              l
          in
          l := (nid, w) :: !l;
          discover tgt)
        (Product.succ p nid)
  done;
  (* Dijkstra from the accepting nodes over the reversed edges *)
  let dist : (int, float) Hashtbl.t = Hashtbl.create 256 in
  let frontier = ref Pq.empty in
  let relax nid d =
    match Hashtbl.find_opt dist nid with
    | Some d' when d' <= d -> ()
    | _ ->
      Hashtbl.replace dist nid d;
      frontier := Pq.add (d, nid) !frontier
  in
  List.iter (fun g -> relax g 0.) !goals;
  while not (Pq.is_empty !frontier) do
    let ((d, nid) as entry) = Pq.min_elt !frontier in
    frontier := Pq.remove entry !frontier;
    if Hashtbl.find dist nid = d then
      match Hashtbl.find_opt rev nid with
      | None -> ()
      | Some preds -> List.iter (fun (pred, w) -> relax pred (d +. w)) !preds
  done;
  fun nid ->
    match Hashtbl.find_opt dist nid with
    | Some d -> d
    | None -> Float.infinity

(* Cheapest total fee of a successful rewriting, assuming services
   cooperate; [None] when the rewriting is impossible. *)
let possible_min_cost (pos : Possible.t) ~cost : float option =
  if not pos.Possible.possible then None
  else
    let d = possible_costs pos ~cost (Product.initial pos.Possible.product) in
    if Float.is_finite d then Some d else None

(* ------------------------------------------------------------------ *)
(* Safe mode: worst-case value of the rewriter's best strategy         *)
(* ------------------------------------------------------------------ *)

(* Collect the unmarked product nodes reachable when the rewriter only
   ever steps to unmarked nodes. *)
let safe_reachable (m : Marking.t) =
  let p = m.Marking.product in
  let seen = Bitvec.create () in
  let order = ref [] in
  let queue = Queue.create () in
  let discover nid =
    if (not (Bitvec.get seen nid)) && not (Marking.is_marked m nid) then begin
      Bitvec.set seen nid;
      order := nid :: !order;
      Queue.add nid queue
    end
  in
  discover (Product.initial p);
  while not (Queue.is_empty queue) do
    let nid = Queue.take queue in
    Array.iter discover (Product.succ p nid)
  done;
  List.rev !order

(* [safe_worst_cost m ~cost] is [None] when the word is not safely
   rewritable, [Some bound] otherwise — the maximal total fee the
   rewriter's cheapest strategy may have to pay, over all honest service
   behaviours. [Some infinity] when the adversary can force unboundedly
   many paid invocations. *)
let safe_worst_cost (m : Marking.t) ~(cost : fn) : float option =
  if not m.Marking.safe then None
  else begin
    let p = m.Marking.product in
    let fork = Product.fork p in
    let nodes = safe_reachable m in
    let value : (int, float) Hashtbl.t = Hashtbl.create 64 in
    let get nid = Option.value ~default:0. (Hashtbl.find_opt value nid) in
    (* One Bellman-style sweep; returns the nodes whose value grew.
       V(n) = max over adversary choices, where a choice is either a
       plain edge, or a fork pair at which the rewriter takes
       min(keep, fee + invoke) over its unmarked options. *)
    let sweep () =
      let changed = ref [] in
      List.iter
        (fun nid ->
          let succs = Product.succ p nid in
          let option_value eid tgt =
            if Marking.is_marked m tgt then Float.infinity
            else edge_weight fork ~cost eid +. get tgt
          in
          (* group fork options by fork id; plain edges stand alone *)
          let plain = ref [] in
          let pairs : (int, float list ref) Hashtbl.t = Hashtbl.create 4 in
          Array.iteri
            (fun i tgt ->
              let eid = Product.succ_edge p nid i in
              match Fork_automaton.fork_of_edge fork eid with
              | None -> plain := option_value eid tgt :: !plain
              | Some _ ->
                let fid = fork.Fork_automaton.fork_of_edge.(eid) in
                let l =
                  match Hashtbl.find_opt pairs fid with
                  | Some l -> l
                  | None ->
                    let l = ref [] in
                    Hashtbl.add pairs fid l;
                    l
                in
                l := option_value eid tgt :: !l)
            succs;
          let candidates =
            !plain
            @ Hashtbl.fold
                (fun _ options acc ->
                  List.fold_left min Float.infinity !options :: acc)
                pairs []
          in
          let v = List.fold_left max 0. candidates in
          if v > get nid then begin
            Hashtbl.replace value nid v;
            changed := nid :: !changed
          end)
        nodes;
      !changed
    in
    (* With acyclic dependencies a fixpoint arrives within n+1 sweeps;
       nodes that still grow afterwards sit on an adversary-controlled
       positive-fee cycle: their value is infinite. Re-settle (infinite
       values propagate but never change again), repeating if new cyclic
       growth appears. Terminates: each outer round pins at least one
       node to infinity. *)
    let n = List.length nodes in
    let rec run i =
      match sweep () with
      | [] -> ()
      | changed ->
        if i >= n + 1 then begin
          List.iter (fun nid -> Hashtbl.replace value nid Float.infinity) changed;
          run 0
        end
        else run (i + 1)
    in
    run 0;
    Some (get (Product.initial p))
  end
