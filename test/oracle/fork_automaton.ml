(* The automaton A_w^k of Figure 3 (lines 5-10): a finite representation
   of every word derivable from the children word [w] by a k-depth
   left-to-right rewriting.

   Construction: start from the linear automaton accepting [w] as a
   single word; then, for k rounds, around every untreated edge labeled
   with an invocable function [f], splice a fresh copy of the (Glushkov)
   automaton of tau_out(f), linked by epsilon moves. The edge's source
   becomes a "fork node": keeping the function edge means "do not invoke
   f here", taking the epsilon edge into the copy means "invoke f and the
   adversary (the service) picks a word of its output type". *)

module R = Axml_regex.Regex
module Schema = Axml_schema.Schema
module Symbol = Axml_schema.Symbol
module Auto = Axml_schema.Auto

type fork = {
  fork_node : int;
  fname : string;
  keep_edge : int;      (* id of the function-labeled edge (the "do not invoke" option) *)
  invoke_edge : int;    (* id of the epsilon edge into the copy (the "invoke" option) *)
  copy_finals : Auto.Int_set.t;  (* absolute ids of the copy's accepting states *)
  exit_node : int;      (* the node u the copy exits to *)
  round : int;          (* 1-based round (rewriting depth) that created the copy *)
}

(* Edges are columns of parallel arrays indexed by edge id, and the
   edges leaving node q are out_edge.(out_off.(q) .. out_off.(q+1) - 1)
   in ascending id order (CSR). The product's expansion loop walks these
   flat arrays and allocates nothing per edge. *)
type t = {
  nstates : int;
  start : int;
  final : int;
  nedges : int;
  edge_dst : int array;
  edge_label : Symbol.t option array;  (* None = epsilon *)
  edge_label_id : int array;           (* dense symbol id, -1 = epsilon *)
  out_off : int array;                 (* nstates + 1 offsets *)
  out_edge : int array;
  forks : fork array;
  fork_of_edge : int array;            (* edge id -> fork index, or -1 *)
  word_length : int;
}

type stats = { states : int; edges : int; forks : int }

let stats (t : t) = { states = t.nstates; edges = t.nedges; forks = Array.length t.forks }

(* One invocable function's output automaton, compiled once per
   environment: the Glushkov NFA of tau_out(f) flattened into edge
   arrays, in the order [Int_map]/[Sym_map]/[Int_set] iteration visits
   its transitions (so the copies spliced into A_w^k number their edges
   exactly as a walk over the maps would). Labels are preallocated and
   their dense ids precomputed, so a splice only copies arrays. *)
type output = {
  o_size : int;
  o_start : int;
  o_finals : Auto.Int_set.t;
  o_src : int array;
  o_dst : int array;
  o_label : Symbol.t option array;  (* always [Some _]: Glushkov has no epsilon *)
  o_label_id : int array;
  o_nested : bool array;  (* the label is a function that itself forks *)
}

type outputs = output Schema.String_map.t

(* Flatten one output NFA; [forks sym] says whether a label is a
   function that itself forks. *)
let output ~forks (nfa : Auto.Nfa.t) =
  let edges =
    Auto.Int_map.fold
      (fun src row acc ->
        Auto.Sym_map.fold
          (fun sym dsts acc ->
            Auto.Int_set.fold (fun dst acc -> (src, sym, dst) :: acc) dsts acc)
          row acc)
      nfa.Auto.Nfa.delta []
    |> List.rev |> Array.of_list
  in
  { o_size = nfa.Auto.Nfa.size;
    o_start = nfa.Auto.Nfa.start;
    o_finals = nfa.Auto.Nfa.finals;
    o_src = Array.map (fun (s, _, _) -> s) edges;
    o_dst = Array.map (fun (_, _, d) -> d) edges;
    o_label = Array.map (fun (_, sym, _) -> Some sym) edges;
    o_label_id = Array.map (fun (_, sym, _) -> Axml_schema.Sym_id.of_symbol sym) edges;
    o_nested = Array.map (fun (_, sym, _) -> forks sym) edges }

let forks_in map = function
  | Symbol.Fun g -> Schema.String_map.mem g map
  | Symbol.Label _ | Symbol.Data -> false

(* Compile every invocable function with a non-empty output language.
   Non-invocable functions and empty output types never fork, so they
   get no entry. *)
let outputs (env : Schema.env) : outputs =
  let nfas =
    Schema.String_map.filter_map
      (fun _ (f : Schema.func) ->
        if not f.Schema.f_invocable then None
        else
          let regex = Schema.compile_content env f.Schema.f_output in
          if R.is_empty_language regex then None
          else Some (Auto.Nfa.glushkov regex))
      env.Schema.env_functions
  in
  Schema.String_map.map (output ~forks:(forks_in nfas)) nfas

let add_output (outputs : outputs) name regex =
  if R.is_empty_language regex then outputs
  else
    Schema.String_map.add name
      (output ~forks:(forks_in outputs) (Auto.Nfa.glushkov regex))
      outputs

(* [build ~outputs ~k w] builds A_w^k, splicing copies of the
   precompiled [outputs] (Section 4's assumption: sender and exchange
   schemas agree on function definitions, so one merged environment
   types every call). Functions without an entry never fork: their
   edges stay as plain letters. *)
let build ~(outputs : outputs) ~k (w : Symbol.t list) =
  let nstates = ref 0 in
  let fresh () = let s = !nstates in incr nstates; s in
  let src : int Vec.t = Vec.create ~dummy:0 in
  let dst : int Vec.t = Vec.create ~dummy:0 in
  let label : Symbol.t option Vec.t = Vec.create ~dummy:None in
  let label_id : int Vec.t = Vec.create ~dummy:(-1) in
  let forks : fork Vec.t =
    Vec.create
      ~dummy:{ fork_node = 0; fname = ""; keep_edge = 0; invoke_edge = 0;
               copy_finals = Auto.Int_set.empty; exit_node = 0; round = 0 }
  in
  let add_edge s l lid d =
    ignore (Vec.push src s);
    ignore (Vec.push dst d);
    ignore (Vec.push label_id lid);
    Vec.push label l
  in
  (* the base word automaton *)
  let start = fresh () in
  let untreated = ref [] in
  let final =
    List.fold_left
      (fun prev sym ->
        let next = fresh () in
        let eid =
          add_edge prev (Some sym) (Axml_schema.Sym_id.of_symbol sym) next
        in
        (match sym with
         | Symbol.Fun fname ->
           if Schema.String_map.mem fname outputs then untreated := eid :: !untreated
         | Symbol.Label _ | Symbol.Data -> ());
        next)
      start w
  in
  (* k expansion rounds *)
  for round = 1 to k do
    let batch = List.rev !untreated in
    untreated := [];
    List.iter
      (fun keep_eid ->
        let fname =
          match Vec.get label keep_eid with
          | Some (Symbol.Fun f) -> f
          | Some (Symbol.Label _ | Symbol.Data) | None -> assert false
        in
        let fork_node = Vec.get src keep_eid and exit_node = Vec.get dst keep_eid in
        let o = Schema.String_map.find fname outputs in
        let offset = !nstates in
        nstates := offset + o.o_size;
        (* copy the (epsilon-free) Glushkov edges *)
        for i = 0 to Array.length o.o_src - 1 do
          let eid =
            add_edge (offset + o.o_src.(i)) o.o_label.(i) o.o_label_id.(i)
              (offset + o.o_dst.(i))
          in
          if round < k && o.o_nested.(i) then untreated := eid :: !untreated
        done;
        let invoke_edge = add_edge fork_node None (-1) (offset + o.o_start) in
        let copy_finals = Auto.Int_set.map (fun q -> offset + q) o.o_finals in
        Auto.Int_set.iter
          (fun qf -> ignore (add_edge qf None (-1) exit_node))
          copy_finals;
        ignore
          (Vec.push forks
             { fork_node; fname; keep_edge = keep_eid; invoke_edge; copy_finals;
               exit_node; round }))
      batch
  done;
  let nstates = !nstates in
  let nedges = Vec.length src in
  let edge_src = Vec.to_array src in
  (* counting sort of the edge ids by source: CSR offsets, then ids *)
  let out_off = Array.make (nstates + 1) 0 in
  Array.iter (fun s -> out_off.(s + 1) <- out_off.(s + 1) + 1) edge_src;
  for s = 1 to nstates do out_off.(s) <- out_off.(s) + out_off.(s - 1) done;
  let out_edge = Array.make nedges 0 in
  let cursor = Array.copy out_off in
  Array.iteri
    (fun eid s ->
      out_edge.(cursor.(s)) <- eid;
      cursor.(s) <- cursor.(s) + 1)
    edge_src;
  let forks = Vec.to_array forks in
  let fork_of_edge = Array.make nedges (-1) in
  Array.iteri
    (fun fid f ->
      fork_of_edge.(f.keep_edge) <- fid;
      fork_of_edge.(f.invoke_edge) <- fid)
    forks;
  { nstates; start; final; nedges; edge_dst = Vec.to_array dst;
    edge_label = Vec.to_array label; edge_label_id = Vec.to_array label_id;
    out_off; out_edge; forks; fork_of_edge; word_length = List.length w }

let fork_of_edge (t : t) eid =
  let fid = t.fork_of_edge.(eid) in
  if fid < 0 then None else Some t.forks.(fid)

(* The exit epsilon-edge of [fork] leaving [node] (a copy final). *)
let exit_edge (t : t) (f : fork) node =
  let rec find i =
    if i >= t.out_off.(node + 1) then None
    else
      let eid = t.out_edge.(i) in
      if Option.is_none t.edge_label.(eid) && t.edge_dst.(eid) = f.exit_node
         && t.fork_of_edge.(eid) < 0
      then Some eid
      else find (i + 1)
  in
  find t.out_off.(node)

let pp ppf (t : t) =
  let s = stats t in
  Fmt.pf ppf "A_w^k: %d states, %d edges, %d forks (|w|=%d)"
    s.states s.edges s.forks t.word_length
