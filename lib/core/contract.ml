(* A compiled exchange contract (see contract.mli): the schema-derived
   artifacts for a fixed (s0, target, k) triple, plus the winning-set
   tables ([Win]) that answer every word-level analysis in one
   right-to-left pass over the word.

   Nothing here is compiled per word: the output automata ([win]) and
   the target's DFA of every content model ([ctx], one
   [Validate.ctx]) are built at creation, and the tables fill lazily,
   one entry per new (winning set, letter) or (function, exit set), so
   their size depends on the content models and the depth, not on how
   many distinct words a stream carries.

   Domain safety: the tables fill under [Win]'s lock and publish
   immutably, and the registry of content models grows under
   [registry_lock] by replacement, so lookups take no lock, the
   counters are atomics, and any number of domains may enforce on one
   contract; clones share everything but their counters. *)

module R = Axml_regex.Regex
module Schema = Axml_schema.Schema
module Symbol = Axml_schema.Symbol
module Metrics = Axml_obs.Metrics
module Trace = Axml_obs.Trace

(* Process-wide registry children; per-contract windows stay in the
   counters of [t] below and [stats] keeps serving them. *)
let m_analyses kind result =
  Metrics.counter
    ~help:"Word-level analyses, by kind; a miss filled at least one win-table entry"
    ~labels:[ ("kind", kind); ("result", result) ]
    "axml_contract_analyses_total"

let m_safe_hit = m_analyses "safe" "hit"
let m_safe_miss = m_analyses "safe" "miss"
let m_possible_hit = m_analyses "possible" "hit"
let m_possible_miss = m_analyses "possible" "miss"

let h_analysis kind =
  Metrics.histogram
    ~help:"Seconds one word-level analysis spent filling win-table entries (misses only)"
    ~labels:[ ("kind", kind) ]
    "axml_contract_analysis_seconds"

let h_safe = h_analysis "safe"
let h_possible = h_analysis "possible"

type t = {
  env : Schema.env;
  s0 : Schema.t;
  target : Schema.t;
  k : int;
  ctx : Validate.ctx;  (* the target's compiled content models; immutable *)
  win : Win.t;  (* shared with clones *)
  (* content model -> its tables: every model of the ctx, then one per
     regex no schema declares; replaced, never written, when it grows *)
  models : (Validate.model * Win.table) array Atomic.t;
  registry_lock : Mutex.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  entries : int Atomic.t;
  output_ok : string -> Document.forest -> bool;
    (* [Validate.output_instance] over [ctx], closed once *)
}

let create ?(k = 1) ?predicate ~s0 ~target () =
  let env = Schema.env_of_schemas ?predicate s0 target in
  let ctx = Validate.ctx ~env target in
  let win = Win.create env in
  { env; s0; target; k; ctx; win;
    models =
      Atomic.make
        (Array.of_list
           (List.map (fun m -> (m, Win.table win m.Validate.dfa)) (Validate.models ctx)));
    registry_lock = Mutex.create ();
    hits = Atomic.make 0; misses = Atomic.make 0; entries = Atomic.make 0;
    output_ok = (fun fname forest -> Validate.output_instance ctx fname forest = []) }

(* A contract over the same compiled schemas and the same tables, with
   counters of its own. *)
let clone (t : t) =
  { t with hits = Atomic.make 0; misses = Atomic.make 0; entries = Atomic.make 0 }

let env t = t.env
let s0 t = t.s0
let target t = t.target
let k t = t.k

(* ------------------------------------------------------------------ *)
(* Static artifacts                                                    *)
(* ------------------------------------------------------------------ *)

let ctx t = t.ctx
let output_ok t = t.output_ok
let regex m = (m : Validate.model).regex
let element_regex t label = Option.map regex (Validate.element_model t.ctx label)
let input_regex t fname = Option.map regex (Validate.input_model t.ctx fname)

type context = Element of string | Input of string

exception Unknown_context of context

let context_regex t = function
  | Element l -> element_regex t l
  | Input f -> input_regex t f

(* ------------------------------------------------------------------ *)
(* Analyses                                                            *)
(* ------------------------------------------------------------------ *)

(* The model and tables of a content-model regex: physical equality
   first ([element_regex]/[input_regex] read the ctx, so the same regex
   value comes back on every call), structural equality as the slow
   fallback, and one [Validate.compile] for a regex no schema
   declares. *)
let rec index eq arr r i =
  if i >= Array.length arr then -1
  else if eq (regex (fst arr.(i))) r then i
  else index eq arr r (i + 1)

let structural = R.equal Symbol.equal

let registered t r =
  let arr = Atomic.get t.models in
  let i = index ( == ) arr r 0 in
  if i >= 0 then arr.(i)
  else
    let i = index structural arr r 0 in
    if i >= 0 then arr.(i)
    else
      Mutex.protect t.registry_lock (fun () ->
          let arr = Atomic.get t.models in
          let i = index structural arr r 0 in
          if i >= 0 then arr.(i)
          else
            let m = Validate.compile r in
            let e = (m, Win.table t.win m.Validate.dfa) in
            Atomic.set t.models (Array.append arr [| e |]);
            e)

(* The one solve path: [fill] reads the word into the frame and [Win]
   solves it; the analysis is counted as a hit or a miss. *)
let counted kind t r =
  let hit = Win.fills r = 0 in
  if hit then begin
    Atomic.incr t.hits;
    Metrics.inc (match kind with Win.Safe -> m_safe_hit | Win.Possible -> m_possible_hit)
  end
  else begin
    Atomic.incr t.misses;
    ignore (Atomic.fetch_and_add t.entries (Win.fills r));
    Metrics.inc (match kind with Win.Safe -> m_safe_miss | Win.Possible -> m_possible_miss);
    Metrics.observe
      (match kind with Win.Safe -> h_safe | Win.Possible -> h_possible)
      (Win.fill_seconds r)
  end;
  if Trace.enabled Trace.default then
    Trace.emit
      (Cache_query
         { cache = (match kind with Win.Safe -> "safe" | Win.Possible -> "possible"); hit })

let solve_forest r t kind ~depth m forest =
  Win.solve r (snd (registered t (regex m))) kind ~budget:depth forest;
  counted kind t r

let forest_run t kind ~depth m forest =
  let r = Win.frame () in
  solve_forest r t kind ~depth m forest;
  r

let word_run kind ?k t ~target_regex word =
  let r = Win.frame () in
  Win.solve_letters r (snd (registered t target_regex)) kind
    ~budget:(Option.value k ~default:t.k)
    (Array.of_list (List.map Axml_schema.Sym_id.find_symbol word));
  counted kind t r;
  r

let safe_run ?k t ~target_regex word = word_run Win.Safe ?k t ~target_regex word
let possible_run ?k t ~target_regex word = word_run Win.Possible ?k t ~target_regex word
let is_safe ?k t ~target_regex word = Win.ok (safe_run ?k t ~target_regex word)
let is_possible ?k t ~target_regex word = Win.ok (possible_run ?k t ~target_regex word)

let sets t ~target_regex = Win.set_count (snd (registered t target_regex))

(* ------------------------------------------------------------------ *)
(* Verdicts                                                            *)
(* ------------------------------------------------------------------ *)

type verdict = Safe | Possible_only | Impossible

let pp_verdict ppf = function
  | Safe -> Fmt.string ppf "safe"
  | Possible_only -> Fmt.string ppf "possible (not safe)"
  | Impossible -> Fmt.string ppf "impossible"

let analyze ?k t ~context word =
  match context_regex t context with
  | None -> raise (Unknown_context context)
  | Some target_regex ->
    if is_safe ?k t ~target_regex word then Safe
    else if is_possible ?k t ~target_regex word then Possible_only
    else Impossible

(* ------------------------------------------------------------------ *)
(* Minimal-k search                                                    *)
(* ------------------------------------------------------------------ *)

type minimal = { safe_at : int option; possible_at : int option }

(* Player options only grow with the depth (A_w^{k+1} contains every
   strategy of A_w^k; the adversary's choices are fixed by the output
   types), so safety and possibility are monotone in k and the first
   depth that answers "yes" is the minimum. *)
let search ~max_k ~possible ~safe =
  let rec find pred k =
    if k > max_k then None
    else if pred k then Some k
    else find pred (k + 1)
  in
  let possible_at = find possible 0 in
  let safe_at =
    (* Safe implies possible, so the safe search can start where the
       possible one succeeded — and is hopeless if nothing is possible. *)
    match possible_at with
    | None -> None
    | Some p -> find safe p
  in
  { safe_at; possible_at }

(* k=0 is a legal start: the fork automaton degenerates to the linear
   word automaton, so [safe_at = Some 0] means the word already
   conforms extensionally. *)
let minimal_k t ~target_regex word =
  search ~max_k:t.k
    ~possible:(fun k -> is_possible ~k t ~target_regex word)
    ~safe:(fun k -> is_safe ~k t ~target_regex word)

(* Section 6: every children word of [content] rewrites safely at depth
   d iff the call g_l with output [content] does at depth d + 1. An
   empty [content] has no document, so every one of them conforms. *)
let content_minimal_k t ~target_regex content =
  let regex = Schema.compile_content t.env content in
  if R.is_empty_language regex then { safe_at = Some 0; possible_at = Some 0 }
  else
    let a = Win.automaton t.win regex and tb = snd (registered t target_regex) in
    search ~max_k:t.k
      ~possible:(fun d -> Win.every_word tb Win.Possible ~budget:(d + 1) a)
      ~safe:(fun d -> Win.every_word tb Win.Safe ~budget:(d + 1) a)

(* ------------------------------------------------------------------ *)
(* Table accounting                                                    *)
(* ------------------------------------------------------------------ *)

type stats = { hits : int; misses : int; evictions : int; entries : int }

let stats (t : t) =
  { hits = Atomic.get t.hits; misses = Atomic.get t.misses; evictions = 0;
    entries = Atomic.get t.entries }

let add_stats a b =
  { hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    evictions = a.evictions + b.evictions;
    entries = a.entries + b.entries }

let hit_rate s =
  let total = s.hits + s.misses in
  if total = 0 then 0. else float_of_int s.hits /. float_of_int total

let diff_stats ~before after =
  { hits = after.hits - before.hits;
    misses = after.misses - before.misses;
    evictions = after.evictions - before.evictions;
    entries = after.entries }

let pp_stats ppf s =
  Fmt.pf ppf "%d hits / %d misses (%.1f%% hit rate), %d entries"
    s.hits s.misses (100. *. hit_rate s) s.entries
