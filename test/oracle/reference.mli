(** The paper's own engines, driven from a {!Axml_core.Contract.t}:
    the reference semantics production's win tables are tested
    against. Nothing here touches the contract's tables or counters. *)

val product :
  ?k:int -> Axml_core.Contract.t ->
  target_regex:Axml_schema.Symbol.t Axml_regex.Regex.t ->
  Axml_schema.Symbol.t list -> Product.t
(** A fresh product of A_w^k (at depth [k], the contract's by default)
    over the contract's environment with the DFA of [target_regex]:
    the input of {!Marking.analyze_eager}, {!Marking.analyze_lazy},
    {!Possible.analyze} and {!Cost}. *)

val game :
  ?plan:(int -> float) -> ?fee:(string -> float) -> Product.t ->
  (int -> bool) -> int Walk.game
(** [game p good]: the walk's view of product [p], standing only on
    nodes satisfying [good]. Options come keep first, then invoke, in
    out-edge order; with [plan] (a per-node estimate of the remaining
    fees, e.g. {!Cost.possible_costs}), cheapest first, an invoke
    option costing [fee callee] (default free) on top. *)

val follow_safe :
  ?plan:(int -> float) -> ?fee:(string -> float) ->
  ?validate:(string -> Axml_core.Document.forest -> bool) ->
  ?reenforce:(string -> Axml_core.Document.forest -> Axml_core.Document.forest option) ->
  Marking.t -> Axml_core.Execute.invoker -> Axml_core.Document.forest ->
  (Axml_core.Execute.outcome, Axml_core.Execute.failure) result
(** Figure 3's strategy: walk the unmarked nodes of a marking game
    through {!Walk.walk}. *)

val follow_possible :
  ?plan:(int -> float) -> ?fee:(string -> float) ->
  ?validate:(string -> Axml_core.Document.forest -> bool) ->
  ?reenforce:(string -> Axml_core.Document.forest -> Axml_core.Document.forest option) ->
  Possible.t -> Axml_core.Execute.invoker -> Axml_core.Document.forest ->
  (Axml_core.Execute.outcome, Axml_core.Execute.failure) result
(** Figure 9's strategy: walk the live nodes, backtracking when an
    actual answer leaves every live path. *)

val section6_minimal_k :
  Axml_core.Contract.t -> target_regex:Axml_schema.Symbol.t Axml_regex.Regex.t ->
  Axml_schema.Schema.content -> Axml_core.Contract.minimal
(** Section 6's reduction on products: the smallest depths d up to the
    contract's at which the one-call word [g_l], [g_l]'s output being
    [content], is safe (lazy marking) or possible (Figure 9) at fork
    depth d + 1. [g_l] exists only in a private copy of the output
    automata, under a name no function has. Each depth is tested on
    its own. An empty [content] gives [g_l] no output, so neither
    holds: unlike {!Axml_core.Contract.content_minimal_k}, which calls
    that case vacuously safe. *)
