(* A compiled exchange contract (see contract.mli): the schema-derived
   artifacts for a fixed (s0, target, k) triple, plus a
   bounded memo table from (content-model regex, children word) to the
   safe/possible analyses — the amortization that lets a peer's
   enforcement module pay the automata construction once per distinct
   word instead of once per document.

   A miss only builds what depends on the word: the output automata of
   the functions ([outputs]) and the target's DFA of every content model
   ([ctx], one [Validate.ctx]) are compiled at creation and never
   change afterwards.

   Domain safety: the mutable state (the regex registry, the FIFO
   analysis cache and its counters) sits behind [lock], and uncached
   analyses are computed while holding it, so concurrent callers see
   each (word, kind) computed exactly once and the counters never tear.
   The returned analyses carry lazily-extended products: they are NOT
   safe to execute from several domains at once — parallel pipelines
   give each domain its own [clone] instead (see DESIGN.md). *)

module R = Axml_regex.Regex
module Schema = Axml_schema.Schema
module Symbol = Axml_schema.Symbol
module Metrics = Axml_obs.Metrics
module Trace = Axml_obs.Trace

(* Process-wide registry children; per-contract windows stay in the
   mutable [t] fields below and [stats] keeps serving them. *)
let m_analyses kind result =
  Metrics.counter
    ~help:"Word-level analyses, by kind and memo-table outcome"
    ~labels:[ ("kind", kind); ("result", result) ]
    "axml_contract_analyses_total"

let m_safe_hit = m_analyses "safe" "hit"
let m_safe_miss = m_analyses "safe" "miss"
let m_possible_hit = m_analyses "possible" "hit"
let m_possible_miss = m_analyses "possible" "miss"

let m_evictions =
  Metrics.counter ~help:"Analysis-cache entries evicted (FIFO, capacity hit)"
    "axml_contract_cache_evictions_total"

let h_analysis kind =
  Metrics.histogram
    ~help:"Seconds to compute one uncached word-level analysis"
    ~labels:[ ("kind", kind) ]
    "axml_contract_analysis_seconds"

let h_safe = h_analysis "safe"
let h_possible = h_analysis "possible"

(* Analyses are memoized by (content-model regex, word, depth): the
   same word can be unsafe at k=1 and safe at k=2, so verdicts at
   different depths must never alias.

   The cache-hit path is the hottest line of warm enforcement, so the
   key avoids touching the regex tree entirely: content-model regexes
   are interned to small per-contract ids (physical equality first —
   [element_regex]/[input_regex] read the contract's ctx, so the same
   regex value comes back on every call — structural equality as the
   slow fallback), and
   the word goes through [Symbol.hash_word], which hashes every symbol
   (a single polymorphic hash of the list stops after about 10 symbols,
   and 17-symbol words differing in their tails would share a bucket).
   A probe therefore costs one hash per symbol plus a handful of int
   compares. *)
module Key = struct
  type t = { rid : int; k : int; h : int; word : Symbol.t list }

  let equal a b =
    a.h = b.h && a.rid = b.rid && a.k = b.k
    && (try List.for_all2 Symbol.equal a.word b.word
        with Invalid_argument _ -> false)

  let hash a = a.h
end

let make_key ~rid ~k word =
  let h =
    (Symbol.hash_word word lxor (rid * 0x9e3779b1) lxor (k * 0x85ebca6b))
    land max_int
  in
  { Key.rid; k; h; word }

module Tbl = Hashtbl.Make (Key)

(* Both analyses of one word share the cache slot: a word that was
   checked safe and then (because unsafe) checked possible costs one
   entry. *)
type entry = {
  mutable e_safe : Marking.t option;
  mutable e_possible : Possible.t option;
}

type t = {
  env : Schema.env;
  s0 : Schema.t;
  target : Schema.t;
  k : int;
  capacity : int;
  ctx : Validate.ctx;  (* the target's compiled content models; immutable *)
  outputs : Fork_automaton.outputs;  (* immutable, shared with clones *)
  lock : Mutex.t;  (* guards every mutable field below *)
  mutable models : Validate.model array;  (* regex id -> compiled model *)
  cache : entry Tbl.t;
  order : Key.t Queue.t;  (* insertion order, for FIFO eviction *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(k = 1) ?predicate ?(cache_capacity = 4096)
    ~s0 ~target () =
  let env = Schema.env_of_schemas ?predicate s0 target in
  let ctx = Validate.ctx ~env target in
  { env; s0; target; k;
    capacity = max 1 cache_capacity;
    ctx;
    outputs = Fork_automaton.outputs env;
    lock = Mutex.create ();
    models = Array.of_list (Validate.models ctx);
    cache = Tbl.create 64;
    order = Queue.create ();
    hits = 0; misses = 0; evictions = 0 }

(* A private contract over the same immutable compiled schemas: the
   merged environment, the ctx, the output automata and the regex
   registry are shared, the analysis cache and counters start fresh.
   This is what parallel pipelines hand each worker domain, so cached
   analyses — whose products are extended in place during execution —
   are never shared across domains. The registry array is replaced, never
   written, when it grows, so sharing it is safe. *)
let clone (t : t) =
  Mutex.protect t.lock (fun () ->
      { t with
        lock = Mutex.create ();
        cache = Tbl.create 64;
        order = Queue.create ();
        hits = 0; misses = 0; evictions = 0 })

let env t = t.env
let s0 t = t.s0
let target t = t.target
let k t = t.k

(* ------------------------------------------------------------------ *)
(* Static artifacts                                                    *)
(* ------------------------------------------------------------------ *)

let ctx t = t.ctx
let regex m = (m : Validate.model).regex
let element_regex t label = Option.map regex (Validate.element_model t.ctx label)
let input_regex t fname = Option.map regex (Validate.input_model t.ctx fname)

type context = Element of string | Input of string

let pp_context ppf = function
  | Element l -> Fmt.pf ppf "<%s>" l
  | Input f -> Fmt.pf ppf "%s()" f

exception Unknown_context of context

let context_regex t = function
  | Element l -> element_regex t l
  | Input f -> input_regex t f

(* ------------------------------------------------------------------ *)
(* The analysis cache                                                  *)
(* ------------------------------------------------------------------ *)

(* The id of a content-model regex in the key registry ([t.models.(id)]
   is its compiled model). The registry starts with every model of the ctx and
   grows by one [Validate.compile] per regex no schema declares; growth
   replaces the array rather than mutating it, so a clone sharing the
   parent's array never observes a write. Caller holds [t.lock]. *)
let model_id t r =
  let arr = t.models in
  let n = Array.length arr in
  let rec find eq i =
    if i >= n then -1 else if eq (regex arr.(i)) r then i else find eq (i + 1)
  in
  match find ( == ) 0 with
  | id when id >= 0 -> id
  | _ ->
    (match find (R.equal Symbol.equal) 0 with
     | id when id >= 0 -> id
     | _ ->
       t.models <- Array.append arr [| Validate.compile r |];
       n)

let model t r = Mutex.protect t.lock (fun () -> t.models.(model_id t r))

(* Only A_w^k is built for the word; the target side is the model's
   read-only DFA. *)
let product_over t (m : Validate.model) ~k word =
  Product.create ~fork:(Fork_automaton.build ~outputs:t.outputs ~k word)
    ~dfa:m.Validate.dfa

let product ?k t ~target_regex word =
  product_over t (model t target_regex) ~k:(Option.value k ~default:t.k) word

(* The queue mirrors the table exactly (keys are enqueued once, on
   entry creation, and leave only through eviction or [clear]), so the
   queue front is always the oldest resident entry. Caller holds
   [t.lock]. *)
let entry t ~rid ~k word =
  let key = make_key ~rid ~k word in
  match Tbl.find_opt t.cache key with
  | Some e -> e
  | None ->
    if Tbl.length t.cache >= t.capacity then begin
      let oldest = Queue.pop t.order in
      Tbl.remove t.cache oldest;
      t.evictions <- t.evictions + 1;
      Metrics.inc m_evictions
    end;
    let e = { e_safe = None; e_possible = None } in
    Tbl.add t.cache key e;
    Queue.push key t.order;
    e

(* Uncached analyses are computed while still holding [t.lock]: slower
   under contention than a compute-outside-retry scheme, but it keeps
   the counters exact (each (word, kind) is computed at most once
   process-wide), which the qcheck reference model relies on. Parallel
   pipelines avoid the contention entirely by running on [clone]s. *)
let safe_analysis ?k t ~target_regex word =
  let k = Option.value k ~default:t.k in
  Mutex.protect t.lock @@ fun () ->
  let rid = model_id t target_regex in
  let e = entry t ~rid ~k word in
  match e.e_safe with
  | Some a ->
    t.hits <- t.hits + 1;
    Metrics.inc m_safe_hit;
    if Trace.enabled Trace.default then
      Trace.emit (Cache_query { cache = "safe"; hit = true });
    a
  | None ->
    t.misses <- t.misses + 1;
    Metrics.inc m_safe_miss;
    if Trace.enabled Trace.default then
      Trace.emit (Cache_query { cache = "safe"; hit = false });
    let a =
      Metrics.time h_safe (fun () ->
          Marking.analyze_lazy (product_over t t.models.(rid) ~k word))
    in
    e.e_safe <- Some a;
    a

let possible_analysis ?k t ~target_regex word =
  let k = Option.value k ~default:t.k in
  Mutex.protect t.lock @@ fun () ->
  let rid = model_id t target_regex in
  let e = entry t ~rid ~k word in
  match e.e_possible with
  | Some a ->
    t.hits <- t.hits + 1;
    Metrics.inc m_possible_hit;
    if Trace.enabled Trace.default then
      Trace.emit (Cache_query { cache = "possible"; hit = true });
    a
  | None ->
    t.misses <- t.misses + 1;
    Metrics.inc m_possible_miss;
    if Trace.enabled Trace.default then
      Trace.emit (Cache_query { cache = "possible"; hit = false });
    let a =
      Metrics.time h_possible (fun () ->
          Possible.analyze (product_over t t.models.(rid) ~k word))
    in
    e.e_possible <- Some a;
    a

let is_safe ?k t ~target_regex word =
  (safe_analysis ?k t ~target_regex word).Marking.safe

let is_possible ?k t ~target_regex word =
  (possible_analysis ?k t ~target_regex word).Possible.possible

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
let minimal_k ?max_k t ~target_regex word =
  let max_k = match max_k with Some m -> max 0 m | None -> t.k in
  search ~max_k
    ~possible:(fun k -> is_possible ~k t ~target_regex word)
    ~safe:(fun k -> is_safe ~k t ~target_regex word)

(* The Section 6 reduction for one sender content model: every children
   word of [content] rewrites safely at depth d iff the single call g
   with tau_out(g) = [content] does at depth d + 1, the extra level
   paying for g itself. g lives only in this function's private
   outputs: its name is longer than every function of the environment,
   so no content model, wildcard or pattern can mention it. Products
   run outside the analysis cache and its counters. *)
let representative_minimal_k t ~target_regex content =
  let longest =
    Schema.String_map.fold
      (fun f _ n -> max n (String.length f))
      t.env.Schema.env_functions 0
  in
  let g = String.make (longest + 1) '#' in
  let outputs =
    Fork_automaton.add_output t.outputs g (Schema.compile_content t.env content)
  in
  let dfa = (model t target_regex).Validate.dfa in
  let product d =
    Product.create ~dfa
      ~fork:(Fork_automaton.build ~outputs ~k:(d + 1) [ Symbol.Fun g ])
  in
  search ~max_k:t.k
    ~possible:(fun d -> (Possible.analyze (product d)).Possible.possible)
    ~safe:(fun d -> (Marking.analyze_lazy (product d)).Marking.safe)

(* ------------------------------------------------------------------ *)
(* Cache accounting                                                    *)
(* ------------------------------------------------------------------ *)

type stats = { hits : int; misses : int; evictions : int; entries : int }

let stats (t : t) =
  Mutex.protect t.lock (fun () ->
      { hits = t.hits; misses = t.misses; evictions = t.evictions;
        entries = Tbl.length t.cache })

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
  Fmt.pf ppf "%d hits / %d misses (%.1f%% hit rate), %d entries, %d evicted"
    s.hits s.misses (100. *. hit_rate s) s.entries s.evictions

let reset_stats (t : t) =
  Mutex.protect t.lock (fun () ->
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0)

let clear (t : t) =
  Mutex.protect t.lock (fun () ->
      Tbl.reset t.cache;
      Queue.clear t.order;
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0)
