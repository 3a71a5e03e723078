(** Executing a word-level rewriting against real services (steps 19-23
    of Figure 3 and 7-10 of Figure 9).

    {!run} follows a win-table analysis ({!Contract.forest_run},
    {!Contract.safe_run}, {!Contract.possible_run}) over the concrete
    children forest, left to right, through {!Win.walk}: at every
    function occurrence the strategy decides between the fork options,
    and this module makes the calls, records them and accounts for
    them. The test oracle walks the paper's Figure 3/9 product
    strategies, and cost-guided ones, with a walk of its own, and
    checks that both make the same calls and materialize the same
    forest.

    Safe strategies cannot get stuck whatever honest services return;
    possible ones backtrack when a call's actual return leaves every
    live path. Moves are tried keep first, then invoke, in edge order,
    as the product strategies of the same game try them.

    A call fires at most once per occurrence: results are cached by
    occurrence, so backtracking re-examines recorded outputs instead of
    re-firing side effects.

    Service misbehaviour never escapes as an exception: {!run} returns a
    typed {!failure} report. An invoker exception marks that fork option
    as unavailable (the walk backtracks to sibling options); a failed
    SAFE walk identifies the contract-breaking invocation by
    re-validating every cached result against its declared output
    type. *)

type invoker = string -> Document.forest -> Document.forest
(** [invoker name params] performs the service call. *)

exception Invocation_failed of { fname : string; attempts : int; cause : exn }
(** The structured give-up report a resilient invoker (e.g.
    [Axml_services.Resilience]) raises after exhausting its policy:
    [attempts] physical tries, last [cause]. Any other exception raised
    by an invoker is treated as a single-attempt failure. *)

type invocation = Win.invocation = {
  inv_name : string;
  inv_params : Document.forest;
  inv_result : Document.forest;
}

type failure =
  | Ill_typed_output of invocation
      (** a service broke its WSDL contract during a safe execution; the
          invocation is the one whose cached result fails validation
          against its declared output type *)
  | Unrewritable_output of invocation
      (** a service's (well-typed) result could not be rewritten into
          the target within the remaining depth budget, and no
          surviving path avoids the call — only possible when [run] is
          given [?reenforce] *)
  | Service_error of { fname : string; attempts : int; cause : exn }
      (** a service call raised and no surviving path avoids it *)
  | No_possible_path
      (** a possible-rewriting attempt died on the actual answers *)
  | Invariant_violation of string
      (** the walk contradicted its own analysis — e.g. a SAFE walk
          failed with zero invocations, or with only well-typed ones *)

val pp_failure : failure Fmt.t

type outcome = {
  materialized : Document.forest;
  invocations : invocation list;
      (** chronological *)
}

exception Refused
(** Raised by a [reenforce] hook (see {!run}) when the returned forest
    cannot be rewritten within the remaining depth budget. *)

val run :
  ?validate:(string -> Document.forest -> bool) ->
  ?reenforce:(string -> Document.forest -> Document.forest) ->
  Win.run -> invoker -> Document.forest -> (outcome, failure) result
(** [run r invoker items] follows the safe or possible strategy of [r],
    as it was solved. The walk keeps its answers and invocations in the
    frame [r] until [r]'s next walk.

    [Error No_possible_path] means a possible-rewriting attempt failed
    at run time (it cannot happen in safe mode with honest services —
    safe-mode failures surface as [Ill_typed_output] / [Service_error] /
    [Invariant_violation] instead).

    [validate fname forest] decides whether [forest] is an output
    instance of [fname]'s declared type (e.g. via
    [Validate.output_instance]); it is consulted only post mortem to
    name the offender of a failed SAFE walk. Without it the most recent
    invocation is blamed.

    [reenforce fname returned] rewrites a raw service return against
    the remaining rewriting-depth budget (k-bounded enforcement: a
    round-r result must itself land in the target within k−r further
    rounds). What it returns is spliced into the walk in place of the
    raw forest; raising {!Refused} marks the fork option unavailable —
    the walk backtracks, and if no path survives the failure is
    {!Unrewritable_output} naming the first refused invocation. Any
    other exception from [reenforce] is classified like a service
    failure. Without [reenforce], results are spliced as returned
    (footnote-5 behaviour, correct only at depth 1). *)

(** {1 Walking in a frame}

    The pieces {!run} is made of, for a caller that walks many words in
    pooled frames ({!Win.take}) and keeps its own state ['st] across
    them: the frame records the invocations, so nothing is allocated
    per walk beyond its output. *)

val chosen : 'st -> string -> invoke:bool -> unit
(** A {!Win.service}'s [chosen]: counts the fork option and traces it. *)

val invoke : Win.run -> invoker -> string -> Document.forest -> Document.forest
(** A {!Win.service}'s [call] without re-enforcement: invokes, records
    the invocation in the frame and returns what the service returned.
    A failed call is recorded as the frame's failure ({!Win.fail}) and
    raises {!Win.Unavailable}. *)

val invoke_reenforced :
  Win.run -> invoker -> ('o -> string -> Document.forest -> Document.forest) -> 'o ->
  string -> Document.forest -> Document.forest
(** [invoke_reenforced r invoker reenforce owner f params] is {!invoke},
    then [reenforce owner f returned], as [run]'s [?reenforce] hook: a
    {!Refused} marks the call refused ({!Win.refuse_last}), any other
    exception is recorded as the call's failure, and both raise
    {!Win.Unavailable}. [reenforce] is meant to close over nothing. *)

val follow : Win.run -> 'st Win.service -> 'st -> Document.forest -> Document.forest
(** {!Win.walk}, counted in [axml_execute_runs_total].
    @raise Win.Dead when every branch died; {!failure} says why. *)

val failure : validate:(string -> Document.forest -> bool) option -> Win.run -> failure
(** Why the walk in the frame died, as {!run} reports it. *)

val invocation : Win.run -> int -> invocation
(** The frame's [i]th recorded invocation. *)

val invocations : Win.run -> invocation list
(** Every recorded invocation, chronological. *)
