(* Shared rendering for the axml CLI. Per-document outcomes, run
   statistics, metrics dumps and lint diagnostics are formatted in one
   place so that batch, rewrite, trace and lint agree on their output
   (and a new command cannot fork the format by copy-pasting). *)

module Enforcement = Axml_peer.Enforcement
module Contract = Axml_core.Contract
module Resilience = Axml_services.Resilience
module Json = Axml_obs.Json
module Metrics = Axml_obs.Metrics
module Diagnostic = Axml_analysis.Diagnostic

let action_string = function
  | Enforcement.Conformed -> "conformed"
  | Enforcement.Rewritten -> "rewritten"
  | Enforcement.Rewritten_possible -> "rewritten-possible"

let error_tag = function
  | Enforcement.Rejected _ -> "REJECTED"
  | Enforcement.Attempt_failed _ -> "ATTEMPT-FAILED"
  | Enforcement.Service_fault _ -> "SERVICE-FAULT"

(* One shared per-document outcome printer: the outcome line on stdout
   (or [ppf]), error details on stderr. *)
let print_outcome ?(ppf = Fmt.stdout) ~label = function
  | Ok (_, report) ->
    Fmt.pf ppf "%s: %s, %d invocation(s)@." label
      (action_string report.Enforcement.action)
      (List.length report.Enforcement.invocations)
  | Error e ->
    Fmt.pf ppf "%s: %s@." label (error_tag e);
    Fmt.epr "%s: %a@." label Enforcement.pp_error e

(* The minimal-k distribution of a run ([batch --min-k]): documents
   searched, documents by minimal safe depth (ascending), and documents
   with no safe depth within k. *)
type min_k = { measured : int; distribution : (int * int) list; unbounded : int }

let no_min_k = { measured = 0; distribution = []; unbounded = 0 }

let add_min_k m (d : Axml_core.Rewriter.doc_minimal) =
  let rec bump k = function
    | (k', n) :: rest when k' = k -> (k, n + 1) :: rest
    | (k', _) :: _ as l when k' > k -> (k, 1) :: l
    | pair :: rest -> pair :: bump k rest
    | [] -> [ (k, 1) ]
  in
  match d.Axml_core.Rewriter.safe_k with
  | Some k -> { m with measured = m.measured + 1; distribution = bump k m.distribution }
  | None -> { m with measured = m.measured + 1; unbounded = m.unbounded + 1 }

(* The statistics of one run: the outcomes of the results the
   enforcement calls returned, the counters of the run's own contract
   and guard (the CLI builds both per run, so their totals are the
   run's), its minimal-k tally, and [elapsed_s], the wall time of the
   enforcement calls alone. *)
type run_stats = {
  docs : int;
  counts : Enforcement.counts;
  elapsed_s : float;
  cache : Contract.stats;
  resilience : Resilience.stats;
  min_k : min_k;
}

let run_stats ~results ~elapsed_s ~contract ~resilience ~min_k =
  { docs = List.length results;
    counts = Enforcement.counts results;
    elapsed_s;
    cache = Contract.stats contract;
    resilience = Resilience.total resilience;
    min_k }

let docs_per_s s = if s.elapsed_s > 0. then float_of_int s.docs /. s.elapsed_s else 0.

let pp_tally ppf m =
  if m.measured = 0 then Fmt.string ppf "not tracked"
  else
    Fmt.pf ppf "%d measured (%a%s)" m.measured
      Fmt.(list ~sep:(any ", ") (fun ppf (k, n) -> Fmt.pf ppf "k=%d: %d" k n))
      m.distribution
      (if m.unbounded > 0 then
         Fmt.str "%sover budget: %d"
           (if m.distribution = [] then "" else ", ")
           m.unbounded
       else "")

(* The shared run-statistics line, on stderr. *)
let print_run_stats s =
  let c = s.counts in
  Fmt.epr
    "%d docs (%d conformed, %d rewritten, %d possible, %d rejected, %d \
     attempt-failed, %d faulted), %d invocations, %.3f s (%.0f docs/s), \
     cache: %a, resilience: %a, min-k: %a@."
    s.docs c.Enforcement.conformed c.Enforcement.rewritten
    c.Enforcement.rewritten_possible c.Enforcement.rejected
    c.Enforcement.attempt_failed c.Enforcement.faults c.Enforcement.invocations
    s.elapsed_s (docs_per_s s) Contract.pp_stats s.cache Resilience.pp_stats
    s.resilience pp_tally s.min_k

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

(* JSON reports go to stdout on one line; files on disk get the
   indented layout. *)
let print_json ppf json = Fmt.pf ppf "%s@." (Json.to_string json)

(* Dump the process-wide metrics registry: Prometheus text format, or
   JSON when the file name ends in .json. *)
let write_metrics file =
  if Filename.check_suffix file ".json" then Json.to_file file (Metrics.to_json Metrics.default)
  else write_file file (Metrics.to_prometheus Metrics.default)

let iso8601 t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let min_k_json m =
  Json.Obj
    [ ("measured", Json.Int m.measured);
      ( "distribution",
        Json.Obj
          (List.map (fun (k, n) -> (string_of_int k, Json.Int n)) m.distribution) );
      ("over_budget", Json.Int m.unbounded) ]

let stats_json ~sender ~exchange s =
  let c = s.counts and cache = s.cache in
  let int n = Json.Int n in
  Json.Obj
    [ ("timestamp", Json.String (iso8601 (Unix.gettimeofday ())));
      ("sender_schema", Json.String sender);
      ("exchange_schema", Json.String exchange);
      ("docs", int s.docs);
      ("conformed", int c.Enforcement.conformed);
      ("rewritten", int c.Enforcement.rewritten);
      ("rewritten_possible", int c.Enforcement.rewritten_possible);
      ("rejected", int c.Enforcement.rejected);
      ("attempt_failed", int c.Enforcement.attempt_failed);
      ("faults", int c.Enforcement.faults);
      ("invocations", int c.Enforcement.invocations);
      ("elapsed_s", Json.Float s.elapsed_s);
      ("docs_per_s", Json.Float (docs_per_s s));
      ( "cache",
        Json.Obj
          [ ("hits", int cache.Contract.hits);
            ("misses", int cache.Contract.misses);
            ("entries", int cache.Contract.entries) ] );
      ("cache_hit_rate", Json.Float (Contract.hit_rate cache));
      ("resilience", Resilience.stats_to_json s.resilience);
      ("min_k", min_k_json s.min_k) ]

(* A usage/input error as a one-diagnostic report: commands running
   under --format json still owe stdout a single valid envelope when
   they die before producing their real report (LINTING.md exit code
   2); the human-readable message goes to stderr as usual. *)
let error_envelope message =
  Diagnostic.report_to_json
    [ Diagnostic.make ~code:"AXM000" ~severity:Diagnostic.Error
        Diagnostic.Root message ]

(* Per-document outcomes and run statistics as the shared JSON envelope
   (diagnostics + summary + the command's payload), for batch --format
   json. Failures double as diagnostics so the summary counts them. *)
let outcome_json ~label result =
  match result with
  | Ok (_, report) ->
    Json.Obj
      [ ("doc", Json.String label);
        ("ok", Json.Bool true);
        ("action", Json.String (action_string report.Enforcement.action));
        ("invocations", Json.Int (List.length report.Enforcement.invocations)) ]
  | Error e ->
    Json.Obj
      [ ("doc", Json.String label);
        ("ok", Json.Bool false);
        ("error", Json.String (error_tag e));
        ("detail", Json.String (Fmt.str "%a" Enforcement.pp_error e)) ]

let batch_json ~sender ~exchange ~outcomes stats =
  let diagnostics =
    List.filter_map
      (fun (label, result) ->
        match result with
        | Ok _ -> None
        | Error e ->
          Some
            (Diagnostic.make ~file:label ~code:"AXM033"
               ~severity:Diagnostic.Error Diagnostic.Root
               (Fmt.str "%a" Enforcement.pp_error e)))
      outcomes
  in
  Json.Obj
    (Diagnostic.report_fields diagnostics
    @ [ ("outcomes", Json.List (List.map (fun (label, r) -> outcome_json ~label r) outcomes));
        ("stats", stats_json ~sender ~exchange stats) ])

(* Lint diagnostics: one line (plus hint) per finding in text mode with
   a trailing severity summary, or the stable JSON report. *)
let print_diagnostics ?(ppf = Fmt.stdout) ~format ds =
  let ds = List.sort Diagnostic.compare ds in
  match format with
  | `Json -> print_json ppf (Diagnostic.report_to_json ds)
  | `Text ->
    List.iter (fun d -> Fmt.pf ppf "@[<v>%a@]@." Diagnostic.pp d) ds;
    Fmt.pf ppf "%d error(s), %d warning(s), %d hint(s)@."
      (Diagnostic.count Diagnostic.Error ds)
      (Diagnostic.count Diagnostic.Warning ds)
      (Diagnostic.count Diagnostic.Hint ds)

(* Schema-evolution reports (axml diff / axml migrate). Text mode shows
   only what changed, then the diagnostics; JSON is the shared envelope
   from Evolution. *)

module Evolution = Axml_analysis.Evolution

let change_of_presence = function
  | Evolution.Both c -> Evolution.change_to_string c
  | Evolution.Only_v1 -> "removed"
  | Evolution.Only_v2 -> "added"

let verdict_string = function
  | Axml_core.Contract.Safe -> "safe"
  | Axml_core.Contract.Possible_only -> "possible"
  | Axml_core.Contract.Impossible -> "impossible"

let print_diff ?(ppf = Fmt.stdout) ~format ?from_file ?to_file
    (r : Evolution.report) =
  match format with
  | `Json -> print_json ppf (Evolution.report_to_json ?from_file ?to_file r)
  | `Text ->
    let changed = function
      | Evolution.Both Evolution.Identical -> false
      | _ -> true
    in
    List.iter
      (fun (ld : Evolution.label_diff) ->
        if changed ld.Evolution.l_presence then
          Fmt.pf ppf "element  %-20s %s%s@." ld.Evolution.l_label
            (change_of_presence ld.Evolution.l_presence)
            (match ld.Evolution.l_new_calls with
             | [] -> ""
             | cs -> Fmt.str " (new calls: %s)" (String.concat ", " cs)))
      r.Evolution.r_labels;
    List.iter
      (fun (fd : Evolution.func_diff) ->
        if
          changed fd.Evolution.f_presence
          || fd.Evolution.f_invocable_v1 <> fd.Evolution.f_invocable_v2
        then
          Fmt.pf ppf "function %-20s %s@." fd.Evolution.f_func
            (change_of_presence fd.Evolution.f_presence))
      r.Evolution.r_functions;
    List.iter
      (fun (v : Evolution.verdict_lift) ->
        Fmt.pf ppf "verdict  %-20s %s@." v.Evolution.v_label
          (verdict_string v.Evolution.v_verdict))
      r.Evolution.r_verdicts;
    print_diagnostics ~ppf ~format:`Text r.Evolution.r_diagnostics

let print_migration ?(ppf = Fmt.stdout) ~format ?from_file ?to_file
    (g : Evolution.migration) =
  match format with
  | `Json -> print_json ppf (Evolution.migration_to_json ?from_file ?to_file g)
  | `Text ->
    List.iter
      (fun (a : Evolution.doc_advisory) ->
        let calls =
          match a.Evolution.a_calls with
          | [] -> ""
          | cs ->
            Fmt.str " — materialize %s"
              (String.concat ", "
                 (List.map
                    (fun (path, name) ->
                      Fmt.str "%s (at /%s)" name
                        (String.concat "/" (List.map string_of_int path)))
                    cs))
        in
        match a.Evolution.a_advisory with
        | Evolution.Conforms ->
          Fmt.pf ppf "%s: conforms — already an instance of the new schema@."
            a.Evolution.a_doc
        | Evolution.Materialize ->
          Fmt.pf ppf "%s: materialize%s@." a.Evolution.a_doc calls
        | Evolution.Possible ->
          Fmt.pf ppf
            "%s: possible%s (some service answers land outside the new \
             schema)@."
            a.Evolution.a_doc calls
        | Evolution.Doomed reason ->
          Fmt.pf ppf "%s: DOOMED — %s@." a.Evolution.a_doc reason)
      g.Evolution.g_advisories;
    Fmt.pf ppf "%s@."
      (if g.Evolution.g_migratable then
         "MIGRATABLE: every document conforms or rewrites safely after \
          materialization"
       else
         "NOT MIGRATABLE: some documents only possibly rewrite, or cannot \
          move at all")
