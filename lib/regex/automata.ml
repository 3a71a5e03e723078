(* Finite-state automata over an arbitrary ordered symbol alphabet.

   This module provides everything the paper's algorithms need (Sections 4
   and 5): Thompson and Glushkov constructions, subset determinization,
   completion, complementation, products, minimization, emptiness and
   witness extraction. The rewriting engine instantiates [Make] with the
   schema symbol alphabet; tests also instantiate it with plain strings. *)

module type SYMBOL = sig
  type t
  val compare : t -> t -> int
  val pp : t Fmt.t
end

module Make (Sym : SYMBOL) = struct
  module Sym_set = Set.Make (Sym)
  module Sym_map = Map.Make (Sym)
  module Int_set = Set.Make (Int)
  module Int_map = Map.Make (Int)

  let pp_sym = Sym.pp

  (* ------------------------------------------------------------------ *)
  (* Nondeterministic automata with epsilon moves                        *)
  (* ------------------------------------------------------------------ *)

  module Nfa = struct
    type t = {
      size : int;  (* states are [0 .. size - 1] *)
      start : int;
      finals : Int_set.t;
      eps : Int_set.t Int_map.t;
      delta : Int_set.t Sym_map.t Int_map.t;
    }

    module Builder = struct
      type nfa = t

      type t = {
        mutable size : int;
        mutable eps : Int_set.t Int_map.t;
        mutable delta : Int_set.t Sym_map.t Int_map.t;
      }

      let create () = { size = 0; eps = Int_map.empty; delta = Int_map.empty }

      let fresh_state b =
        let s = b.size in
        b.size <- s + 1;
        s

      let add_eps b src dst =
        let cur = Option.value ~default:Int_set.empty (Int_map.find_opt src b.eps) in
        b.eps <- Int_map.add src (Int_set.add dst cur) b.eps

      let add_edge b src sym dst =
        let row = Option.value ~default:Sym_map.empty (Int_map.find_opt src b.delta) in
        let cur = Option.value ~default:Int_set.empty (Sym_map.find_opt sym row) in
        b.delta <- Int_map.add src (Sym_map.add sym (Int_set.add dst cur) row) b.delta

      let freeze b ~start ~finals : nfa =
        { size = b.size; start; finals; eps = b.eps; delta = b.delta }
    end

    let eps_successors nfa s =
      Option.value ~default:Int_set.empty (Int_map.find_opt s nfa.eps)

    let successors nfa s sym =
      match Int_map.find_opt s nfa.delta with
      | None -> Int_set.empty
      | Some row -> Option.value ~default:Int_set.empty (Sym_map.find_opt sym row)

    let eps_closure nfa states =
      let rec saturate frontier acc =
        if Int_set.is_empty frontier then acc
        else
          let next =
            Int_set.fold
              (fun s nxt -> Int_set.union nxt (eps_successors nfa s))
              frontier Int_set.empty
          in
          let fresh = Int_set.diff next acc in
          saturate fresh (Int_set.union acc fresh)
      in
      saturate states states

    (* One step of the subset simulation: symbol move then eps closure. *)
    let step_set nfa states sym =
      let moved =
        Int_set.fold
          (fun s acc -> Int_set.union acc (successors nfa s sym))
          states Int_set.empty
      in
      eps_closure nfa moved

    let accepts nfa word =
      let init = eps_closure nfa (Int_set.singleton nfa.start) in
      let final =
        List.fold_left (fun states sym -> step_set nfa states sym) init word
      in
      not (Int_set.is_empty (Int_set.inter final nfa.finals))

    let alphabet nfa =
      Int_map.fold
        (fun _ row acc -> Sym_map.fold (fun sym _ acc -> Sym_set.add sym acc) row acc)
        nfa.delta Sym_set.empty

    let count_edges nfa =
      let labelled =
        Int_map.fold
          (fun _ row acc ->
            Sym_map.fold (fun _ dsts acc -> acc + Int_set.cardinal dsts) row acc)
          nfa.delta 0
      in
      let eps =
        Int_map.fold (fun _ dsts acc -> acc + Int_set.cardinal dsts) nfa.eps 0
      in
      labelled + eps

    (* Thompson construction: one fresh start/final pair per operator. *)
    let thompson regex =
      let b = Builder.create () in
      let rec compile r =
        let entry = Builder.fresh_state b and exit = Builder.fresh_state b in
        (match (r : Sym.t Regex.t) with
         | Empty -> ()
         | Epsilon -> Builder.add_eps b entry exit
         | Sym a -> Builder.add_edge b entry a exit
         | Seq (r1, r2) ->
           let e1, x1 = compile r1 and e2, x2 = compile r2 in
           Builder.add_eps b entry e1;
           Builder.add_eps b x1 e2;
           Builder.add_eps b x2 exit
         | Alt (r1, r2) ->
           let e1, x1 = compile r1 and e2, x2 = compile r2 in
           Builder.add_eps b entry e1;
           Builder.add_eps b entry e2;
           Builder.add_eps b x1 exit;
           Builder.add_eps b x2 exit
         | Star r1 ->
           let e1, x1 = compile r1 in
           Builder.add_eps b entry exit;
           Builder.add_eps b entry e1;
           Builder.add_eps b x1 e1;
           Builder.add_eps b x1 exit
         | Plus r1 ->
           let e1, x1 = compile r1 in
           Builder.add_eps b entry e1;
           Builder.add_eps b x1 e1;
           Builder.add_eps b x1 exit
         | Opt r1 ->
           let e1, x1 = compile r1 in
           Builder.add_eps b entry exit;
           Builder.add_eps b entry e1;
           Builder.add_eps b x1 exit);
        (entry, exit)
      in
      let start, final = compile regex in
      Builder.freeze b ~start ~finals:(Int_set.singleton final)

    (* Glushkov construction. States are 0 (initial) plus one state per
       symbol occurrence; there are no epsilon moves, so the result is
       deterministic exactly when the regex is 1-unambiguous — the
       determinism XML Schema requires and the paper relies on for its
       polynomial bound (Section 4, "Complexity"). *)
    let glushkov regex =
      (* Linearize: collect positions 1..m with their symbols. *)
      let positions = ref [] in
      let counter = ref 0 in
      let rec linearize (r : Sym.t Regex.t) : (Sym.t * int) Regex.t =
        match r with
        | Empty -> Empty
        | Epsilon -> Epsilon
        | Sym a ->
          incr counter;
          positions := (!counter, a) :: !positions;
          Sym (a, !counter)
        | Seq (r1, r2) ->
          let l1 = linearize r1 in
          let l2 = linearize r2 in
          Seq (l1, l2)
        | Alt (r1, r2) ->
          let l1 = linearize r1 in
          let l2 = linearize r2 in
          Alt (l1, l2)
        | Star r1 -> Star (linearize r1)
        | Plus r1 -> Plus (linearize r1)
        | Opt r1 -> Opt (linearize r1)
      in
      let lin = linearize regex in
      let m = !counter in
      let sym_of = Array.make (m + 1) None in
      List.iter (fun (i, a) -> sym_of.(i) <- Some a) !positions;
      let follow = Array.make (m + 1) Int_set.empty in
      let add_follow src dsts =
        Int_set.iter
          (fun p -> follow.(p) <- Int_set.union follow.(p) dsts)
          src
      in
      (* Returns (nullable, first, last) and fills [follow]. *)
      let rec analyze (r : (Sym.t * int) Regex.t) =
        match r with
        | Empty -> (false, Int_set.empty, Int_set.empty)
        | Epsilon -> (true, Int_set.empty, Int_set.empty)
        | Sym (_, i) -> (false, Int_set.singleton i, Int_set.singleton i)
        | Seq (r1, r2) ->
          let n1, f1, l1 = analyze r1 in
          let n2, f2, l2 = analyze r2 in
          add_follow l1 f2;
          let first = if n1 then Int_set.union f1 f2 else f1 in
          let last = if n2 then Int_set.union l1 l2 else l2 in
          (n1 && n2, first, last)
        | Alt (r1, r2) ->
          let n1, f1, l1 = analyze r1 in
          let n2, f2, l2 = analyze r2 in
          (n1 || n2, Int_set.union f1 f2, Int_set.union l1 l2)
        | Star r1 | Plus r1 ->
          let n1, f1, l1 = analyze r1 in
          add_follow l1 f1;
          let nullable = (match r with Star _ -> true | _ -> n1) in
          (nullable, f1, l1)
        | Opt r1 ->
          let _, f1, l1 = analyze r1 in
          (true, f1, l1)
      in
      let nullable, first, last = analyze lin in
      let b = Builder.create () in
      (* state i corresponds to position i; state 0 is the start *)
      for _ = 0 to m do ignore (Builder.fresh_state b) done;
      let symbol_at p =
        match sym_of.(p) with
        | Some a -> a
        | None -> assert false
      in
      Int_set.iter (fun p -> Builder.add_edge b 0 (symbol_at p) p) first;
      for p = 1 to m do
        Int_set.iter (fun q -> Builder.add_edge b p (symbol_at q) q) follow.(p)
      done;
      let finals = if nullable then Int_set.add 0 last else last in
      Builder.freeze b ~start:0 ~finals

    (* Reachability over all edges (symbols and epsilon). *)
    let reachable nfa =
      let rec explore frontier seen =
        if Int_set.is_empty frontier then seen
        else
          let next =
            Int_set.fold
              (fun s acc ->
                let acc = Int_set.union acc (eps_successors nfa s) in
                match Int_map.find_opt s nfa.delta with
                | None -> acc
                | Some row ->
                  Sym_map.fold (fun _ dsts acc -> Int_set.union acc dsts) row acc)
              frontier Int_set.empty
          in
          let fresh = Int_set.diff next seen in
          explore fresh (Int_set.union seen fresh)
      in
      explore (Int_set.singleton nfa.start) (Int_set.singleton nfa.start)

    let is_empty nfa =
      Int_set.is_empty (Int_set.inter (reachable nfa) nfa.finals)

    (* BFS for a shortest accepted word. *)
    let shortest_word nfa =
      let start = eps_closure nfa (Int_set.singleton nfa.start) in
      let accepting states =
        not (Int_set.is_empty (Int_set.inter states nfa.finals))
      in
      if accepting start then Some []
      else begin
        let module Key = struct
          type t = Int_set.t
          let compare = Int_set.compare
        end in
        let module Seen = Set.Make (Key) in
        let alphabet = alphabet nfa in
        let queue = Queue.create () in
        Queue.add (start, []) queue;
        let seen = ref (Seen.singleton start) in
        let result = ref None in
        (try
           while not (Queue.is_empty queue) do
             let states, path = Queue.take queue in
             Sym_set.iter
               (fun sym ->
                 let next = step_set nfa states sym in
                 if not (Int_set.is_empty next) && not (Seen.mem next !seen) then begin
                   if accepting next then begin
                     result := Some (List.rev (sym :: path));
                     raise Exit
                   end;
                   seen := Seen.add next !seen;
                   Queue.add (next, sym :: path) queue
                 end)
               alphabet
           done
         with Exit -> ());
        !result
      end

    let pp ppf nfa =
      Fmt.pf ppf "@[<v>NFA: %d states, start %d, finals {%a}@,"
        nfa.size nfa.start
        Fmt.(list ~sep:comma int) (Int_set.elements nfa.finals);
      Int_map.iter
        (fun s dsts ->
          Int_set.iter (fun d -> Fmt.pf ppf "  %d --eps--> %d@," s d) dsts)
        nfa.eps;
      Int_map.iter
        (fun s row ->
          Sym_map.iter
            (fun sym dsts ->
              Int_set.iter (fun d -> Fmt.pf ppf "  %d --%a--> %d@," s pp_sym sym d) dsts)
            row)
        nfa.delta;
      Fmt.pf ppf "@]"
  end

  (* ------------------------------------------------------------------ *)
  (* Deterministic automata                                              *)
  (* ------------------------------------------------------------------ *)

  module Dfa = struct
    type t = {
      size : int;
      start : int;
      finals : Int_set.t;
      delta : int Sym_map.t Int_map.t;  (* partial: missing entry = reject *)
      alphabet : Sym_set.t;
    }

    let step dfa state sym =
      match Int_map.find_opt state dfa.delta with
      | None -> None
      | Some row -> Sym_map.find_opt sym row

    let is_final dfa state = Int_set.mem state dfa.finals

    let accepts dfa word =
      let rec run state = function
        | [] -> is_final dfa state
        | sym :: rest ->
          (match step dfa state sym with
           | None -> false
           | Some next -> run next rest)
      in
      run dfa.start word

    let count_edges dfa =
      Int_map.fold (fun _ row acc -> acc + Sym_map.cardinal row) dfa.delta 0

    (* Subset construction. *)
    let of_nfa ?alphabet nfa =
      let alpha =
        match alphabet with
        | Some a -> Sym_set.union a (Nfa.alphabet nfa)
        | None -> Nfa.alphabet nfa
      in
      let module Key_map = Map.Make (struct
        type t = Int_set.t
        let compare = Int_set.compare
      end) in
      let ids = ref Key_map.empty in
      let next_id = ref 0 in
      let finals = ref Int_set.empty in
      let delta = ref Int_map.empty in
      let queue = Queue.create () in
      let intern states =
        match Key_map.find_opt states !ids with
        | Some id -> id
        | None ->
          let id = !next_id in
          incr next_id;
          ids := Key_map.add states id !ids;
          if not (Int_set.is_empty (Int_set.inter states nfa.Nfa.finals)) then
            finals := Int_set.add id !finals;
          Queue.add (states, id) queue;
          id
      in
      let start_set = Nfa.eps_closure nfa (Int_set.singleton nfa.Nfa.start) in
      let start = intern start_set in
      while not (Queue.is_empty queue) do
        let states, id = Queue.take queue in
        let row =
          Sym_set.fold
            (fun sym row ->
              let next = Nfa.step_set nfa states sym in
              if Int_set.is_empty next then row
              else Sym_map.add sym (intern next) row)
            alpha Sym_map.empty
        in
        if not (Sym_map.is_empty row) then delta := Int_map.add id row !delta
      done;
      { size = !next_id; start; finals = !finals; delta = !delta; alphabet = alpha }

    let of_regex ?alphabet regex = of_nfa ?alphabet (Nfa.glushkov regex)

    (* Make the transition function total over [alphabet] (adding a sink
       state if needed) — the "deterministic and complete" requirement of
       Figure 3 step (c). *)
    let complete ~alphabet dfa =
      let alpha = Sym_set.union alphabet dfa.alphabet in
      let missing =
        Int_map.cardinal dfa.delta < dfa.size
        || Int_map.exists (fun _ row -> Sym_map.cardinal row < Sym_set.cardinal alpha)
             dfa.delta
      in
      if not missing then { dfa with alphabet = alpha }
      else begin
        let sink = dfa.size in
        let full_row target =
          Sym_set.fold (fun sym row -> Sym_map.add sym target row) alpha Sym_map.empty
        in
        let used_sink = ref false in
        let delta = ref Int_map.empty in
        for s = 0 to dfa.size - 1 do
          let row =
            Option.value ~default:Sym_map.empty (Int_map.find_opt s dfa.delta)
          in
          let row =
            Sym_set.fold
              (fun sym row ->
                if Sym_map.mem sym row then row
                else begin
                  used_sink := true;
                  Sym_map.add sym sink row
                end)
              alpha row
          in
          delta := Int_map.add s row !delta
        done;
        if !used_sink then begin
          delta := Int_map.add sink (full_row sink) !delta;
          { size = dfa.size + 1; start = dfa.start; finals = dfa.finals;
            delta = !delta; alphabet = alpha }
        end
        else { dfa with delta = !delta; alphabet = alpha }
      end

    let is_complete dfa =
      let ok = ref true in
      for s = 0 to dfa.size - 1 do
        match Int_map.find_opt s dfa.delta with
        | None -> if not (Sym_set.is_empty dfa.alphabet) then ok := false
        | Some row ->
          Sym_set.iter
            (fun sym -> if not (Sym_map.mem sym row) then ok := false)
            dfa.alphabet
      done;
      !ok

    (* Complement over [alphabet]: complete then flip finals. *)
    let complement ~alphabet dfa =
      let dfa = complete ~alphabet dfa in
      let finals = ref Int_set.empty in
      for s = 0 to dfa.size - 1 do
        if not (Int_set.mem s dfa.finals) then finals := Int_set.add s !finals
      done;
      { dfa with finals = !finals }

    (* Pairwise product; [keep_final a b] decides acceptance of a pair.
       Both automata are completed over the union alphabet first so the
       product is itself complete. *)
    let product ~keep_final dfa1 dfa2 =
      let alpha = Sym_set.union dfa1.alphabet dfa2.alphabet in
      let dfa1 = complete ~alphabet:alpha dfa1 in
      let dfa2 = complete ~alphabet:alpha dfa2 in
      let module Pair_map = Map.Make (struct
        type t = int * int
        let compare = compare
      end) in
      let ids = ref Pair_map.empty in
      let next_id = ref 0 in
      let finals = ref Int_set.empty in
      let delta = ref Int_map.empty in
      let queue = Queue.create () in
      let intern ((s1, s2) as pair) =
        match Pair_map.find_opt pair !ids with
        | Some id -> id
        | None ->
          let id = !next_id in
          incr next_id;
          ids := Pair_map.add pair id !ids;
          if keep_final (is_final dfa1 s1) (is_final dfa2 s2) then
            finals := Int_set.add id !finals;
          Queue.add (pair, id) queue;
          id
      in
      let start = intern (dfa1.start, dfa2.start) in
      while not (Queue.is_empty queue) do
        let (s1, s2), id = Queue.take queue in
        let row =
          Sym_set.fold
            (fun sym row ->
              match step dfa1 s1 sym, step dfa2 s2 sym with
              | Some n1, Some n2 -> Sym_map.add sym (intern (n1, n2)) row
              | _ -> row)
            alpha Sym_map.empty
        in
        if not (Sym_map.is_empty row) then delta := Int_map.add id row !delta
      done;
      { size = !next_id; start; finals = !finals; delta = !delta; alphabet = alpha }

    let intersect dfa1 dfa2 = product ~keep_final:( && ) dfa1 dfa2
    let union dfa1 dfa2 = product ~keep_final:( || ) dfa1 dfa2

    let difference dfa1 dfa2 =
      product ~keep_final:(fun f1 f2 -> f1 && not f2) dfa1 dfa2

    let reachable dfa =
      let rec explore frontier seen =
        if Int_set.is_empty frontier then seen
        else
          let next =
            Int_set.fold
              (fun s acc ->
                match Int_map.find_opt s dfa.delta with
                | None -> acc
                | Some row -> Sym_map.fold (fun _ d acc -> Int_set.add d acc) row acc)
              frontier Int_set.empty
          in
          let fresh = Int_set.diff next seen in
          explore fresh (Int_set.union seen fresh)
      in
      explore (Int_set.singleton dfa.start) (Int_set.singleton dfa.start)

    let is_empty dfa =
      Int_set.is_empty (Int_set.inter (reachable dfa) dfa.finals)

    let shortest_word dfa =
      if is_final dfa dfa.start then Some []
      else begin
        let queue = Queue.create () in
        Queue.add (dfa.start, []) queue;
        let seen = ref (Int_set.singleton dfa.start) in
        let result = ref None in
        (try
           while not (Queue.is_empty queue) do
             let state, path = Queue.take queue in
             match Int_map.find_opt state dfa.delta with
             | None -> ()
             | Some row ->
               Sym_map.iter
                 (fun sym next ->
                   if not (Int_set.mem next !seen) then begin
                     if is_final dfa next then begin
                       result := Some (List.rev (sym :: path));
                       raise Exit
                     end;
                     seen := Int_set.add next !seen;
                     Queue.add (next, sym :: path) queue
                   end)
                 row
           done
         with Exit -> ());
        !result
      end

    (* Moore partition-refinement minimization. The input is completed
       first; the result is complete over the same alphabet. *)
    let minimize dfa =
      let dfa = complete ~alphabet:dfa.alphabet dfa in
      let reach = reachable dfa in
      (* class of each state: start with final / non-final *)
      let cls = Array.make dfa.size 0 in
      Int_set.iter (fun s -> cls.(s) <- 1) dfa.finals;
      let nclasses = ref 2 in
      let changed = ref true in
      let alpha = Sym_set.elements dfa.alphabet in
      while !changed do
        changed := false;
        (* signature of a state: its class plus the classes of successors *)
        let module Sig_map = Map.Make (struct
          type t = int * int list
          let compare = compare
        end) in
        let sigs = ref Sig_map.empty in
        let next_cls = Array.make dfa.size (-1) in
        let counter = ref 0 in
        Int_set.iter
          (fun s ->
            let succ_classes =
              List.map
                (fun sym ->
                  match step dfa s sym with
                  | Some d -> cls.(d)
                  | None -> -1)
                alpha
            in
            let key = (cls.(s), succ_classes) in
            let id =
              match Sig_map.find_opt key !sigs with
              | Some id -> id
              | None ->
                let id = !counter in
                incr counter;
                sigs := Sig_map.add key id !sigs;
                id
            in
            next_cls.(s) <- id)
          reach;
        if !counter <> !nclasses then changed := true;
        Int_set.iter
          (fun s -> if next_cls.(s) <> cls.(s) then changed := true)
          reach;
        Int_set.iter (fun s -> cls.(s) <- next_cls.(s)) reach;
        nclasses := !counter
      done;
      let size = !nclasses in
      let finals = ref Int_set.empty in
      Int_set.iter
        (fun s -> if is_final dfa s then finals := Int_set.add cls.(s) !finals)
        reach;
      let delta = ref Int_map.empty in
      Int_set.iter
        (fun s ->
          let row =
            List.fold_left
              (fun row sym ->
                match step dfa s sym with
                | Some d -> Sym_map.add sym cls.(d) row
                | None -> row)
              Sym_map.empty alpha
          in
          if not (Sym_map.is_empty row) then delta := Int_map.add cls.(s) row !delta)
        reach;
      { size; start = cls.(dfa.start); finals = !finals; delta = !delta;
        alphabet = dfa.alphabet }

    (* Language inclusion via emptiness of the difference. *)
    let subset dfa1 dfa2 = is_empty (difference dfa1 dfa2)

    (* Language equivalence via inclusion both ways. *)
    let equal_language dfa1 dfa2 = subset dfa1 dfa2 && subset dfa2 dfa1

    (* A word accepted by [dfa1] but not [dfa2], if any. *)
    let separating_word dfa1 dfa2 =
      shortest_word (difference dfa1 dfa2)

    (* Flat transition tables for the hot membership loop. Functional
       maps remain the construction representation (everything above is
       untouched); [Dense.compile] freezes a finished DFA into int
       arrays indexed by an external dense symbol coding [sym_id], and
       stepping then costs two array loads and no allocation. A missing
       transition and an unknown symbol both step to the reject state
       [-1], which is absorbing. *)
    module Dense = struct
      type dense = {
        size : int;
        width : int;          (* columns: distinct alphabet symbols *)
        start : int;
        cols : int array;     (* dense symbol id -> column, -1 = not in alphabet *)
        trans : int array;    (* state * width + column -> state, -1 = reject *)
        accept : Bytes.t;     (* bit per state *)
        syms : Sym.t array;   (* column -> symbol (diagnostics, inverse of cols) *)
      }

      let compile ~sym_id (dfa : t) =
        let syms = Array.of_list (Sym_set.elements dfa.alphabet) in
        let width = Array.length syms in
        let max_id =
          Array.fold_left (fun m s -> max m (sym_id s)) (-1) syms
        in
        let cols = Array.make (max_id + 1) (-1) in
        Array.iteri
          (fun col s ->
            let id = sym_id s in
            if id < 0 then invalid_arg "Dense.compile: negative symbol id";
            cols.(id) <- col)
          syms;
        let trans = Array.make (max 1 (dfa.size * width)) (-1) in
        Int_map.iter
          (fun s row ->
            Sym_map.iter
              (fun sym d -> trans.((s * width) + cols.(sym_id sym)) <- d)
              row)
          dfa.delta;
        let accept = Bytes.make ((dfa.size / 8) + 1) '\000' in
        Int_set.iter
          (fun s ->
            let b = s / 8 in
            Bytes.set accept b
              (Char.chr (Char.code (Bytes.get accept b) lor (1 lsl (s mod 8)))))
          dfa.finals;
        { size = dfa.size; width; start = dfa.start; cols; trans; accept; syms }

      let start d = d.start
      let size d = d.size
      let width d = d.width

      let is_final d s =
        s >= 0
        && Char.code (Bytes.get d.accept (s / 8)) land (1 lsl (s mod 8)) <> 0

      let columns d = d.cols

      let step_column d s col =
        if s < 0 || col < 0 then -1 else d.trans.((s * d.width) + col)

      (* One step by dense symbol id; [-1] (reject) is absorbing. *)
      let step_id d s id =
        if s < 0 then -1
        else
          let cols = d.cols in
          let col = if id >= 0 && id < Array.length cols then cols.(id) else -1 in
          if col < 0 then -1 else d.trans.((s * d.width) + col)

      let step ~sym_id d s sym = step_id d s (sym_id sym)

      let accepts_ids d (ids : int array) =
        let s = ref d.start in
        let n = Array.length ids in
        let i = ref 0 in
        while !s >= 0 && !i < n do
          s := step_id d !s ids.(!i);
          incr i
        done;
        is_final d !s

      let accepts ~sym_id d word =
        let rec run s = function
          | [] -> is_final d s
          | sym :: rest -> if s < 0 then false else run (step ~sym_id d s sym) rest
        in
        run d.start word
    end

    let pp ppf dfa =
      Fmt.pf ppf "@[<v>DFA: %d states, start %d, finals {%a}@,"
        dfa.size dfa.start
        Fmt.(list ~sep:comma int) (Int_set.elements dfa.finals);
      Int_map.iter
        (fun s row ->
          Sym_map.iter
            (fun sym d -> Fmt.pf ppf "  %d --%a--> %d@," s pp_sym sym d)
            row)
        dfa.delta;
      Fmt.pf ppf "@]"
  end

  (* A regular expression is deterministic (1-unambiguous) iff its
     Glushkov automaton is deterministic — the XML Schema condition the
     paper leans on to avoid the exponential complement blow-up. *)
  let deterministic_regex regex =
    let nfa = Nfa.glushkov regex in
    let ok = ref true in
    Int_map.iter
      (fun _ row ->
        Sym_map.iter
          (fun _ dsts -> if Int_set.cardinal dsts > 1 then ok := false)
          row)
      nfa.Nfa.delta;
    !ok

  (* Random word sampling from a regex, used by oracles and generators.
     [fuel] bounds the number of star unrollings so sampling terminates. *)
  let sample_word ~rand_int ~fuel regex =
    let budget = ref fuel in
    let rec go (r : Sym.t Regex.t) =
      match r with
      | Empty -> None
      | Epsilon -> Some []
      | Sym a -> Some [ a ]
      | Seq (r1, r2) ->
        (match go r1, go r2 with
         | Some w1, Some w2 -> Some (w1 @ w2)
         | _ -> None)
      | Alt (r1, r2) ->
        let first, second = if rand_int 2 = 0 then (r1, r2) else (r2, r1) in
        (match go first with
         | Some w -> Some w
         | None -> go second)
      | Star r1 ->
        if !budget <= 0 then Some []
        else begin
          let n = rand_int 3 in
          let rec loop n acc =
            if n <= 0 then Some (List.concat (List.rev acc))
            else begin
              decr budget;
              match go r1 with
              | Some w -> loop (n - 1) (w :: acc)
              | None -> Some (List.concat (List.rev acc))
            end
          in
          loop n []
        end
      | Plus r1 ->
        (match go r1 with
         | None -> None
         | Some w ->
           (match go (Star r1) with
            | Some rest -> Some (w @ rest)
            | None -> Some w))
      | Opt r1 ->
        if rand_int 2 = 0 then Some []
        else (match go r1 with Some w -> Some w | None -> Some [])
    in
    go regex
end
