(* axml — command-line driver over the library.

     axml validate  -s schema.axs doc.xml
     axml check     -f sender.axs -t exchange.axs doc.xml [-k N] [--possible]
     axml rewrite   -f sender.axs -t exchange.axs doc.xml [-k N] [--possible]
                    [--oracle random|fail] [-o out.xml]
     axml compat    -f sender.axs -t exchange.axs [-r root] [-k N]
     axml schema    -s schema.axs [--to text|xml]
     axml batch     -f sender.axs -t exchange.axs doc1.xml doc2.xml ...
                    [-k N] [--possible] [--oracle random|fail|flaky]
                    [--retries N] [--timeout-ms N] [--breaker-threshold N]
                    [--format text|json] [--stats-json FILE]
                    [--metrics-out FILE]
     axml trace     -f sender.axs -t exchange.axs doc.xml [-k N] [--possible]
                    [--oracle random|fail|flaky] [--retries N]
                    [--buffer N] [--jsonl FILE] [--metrics-out FILE]
     axml lint      -s schema.axs | -f sender.axs -t exchange.axs [doc.xml...]
                    [--format text|json] [--deny error|warning|hint]
                    [-k N] [--metrics-out FILE]
     axml diff      -f v1.axs -t v2.axs [-k N] [--format text|json]
                    [--deny error|warning|hint] [--metrics-out FILE]
     axml migrate   -f v1.axs -t v2.axs doc1.xml doc2.xml ...
                    [-k N] [--format text|json] [--metrics-out FILE]

   Schema files may use the compact textual syntax (see README) or the
   XML Schema_int syntax; the format is auto-detected. Documents are
   intensional XML with <int:fun> call nodes. The [rewrite] command
   simulates services with honest random oracles drawn from the declared
   signatures (failing stubs with --oracle fail, or flaky ones failing
   every 7th call with --oracle flaky). [batch] guards every invocation
   with a retry/timeout/circuit-breaker policy, so a misbehaving service
   costs one document, not the batch. [trace] replays one enforcement
   with the decision tracer attached and prints every recorded step —
   validation, cache queries, fork choices, invocation attempts,
   retries, breaker transitions, the final verdict. [diff] classifies a
   schema evolution label by label (identical / widened / narrowed /
   incompatible) and lifts the verdicts to contract level; [migrate]
   advises an archived corpus on moving to the new version, naming the
   calls each document must materialize. --metrics-out dumps
   the process-wide metrics registry (Prometheus text format, or JSON
   when FILE ends in .json); see OBSERVABILITY.md for the catalog. *)

open Cmdliner

module Schema = Axml_schema.Schema
module Schema_parser = Axml_schema.Schema_parser
module D = Axml_core.Document
module Validate = Axml_core.Validate
module Rewriter = Axml_core.Rewriter
module Generate = Axml_core.Generate
module Schema_rewrite = Axml_core.Schema_rewrite
module Syntax = Axml_peer.Syntax
module Xml_schema_int = Axml_peer.Xml_schema_int
module Enforcement = Axml_peer.Enforcement
module Resilience = Axml_services.Resilience
module Metrics = Axml_obs.Metrics
module Trace = Axml_obs.Trace

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

exception Cli_error of string

let fail fmt = Fmt.kstr (fun m -> raise (Cli_error m)) fmt

(* Auto-detect the schema syntax: XML starts with '<'. *)
let load_schema path =
  let text = read_file path in
  let trimmed = String.trim text in
  if String.length trimmed > 0 && trimmed.[0] = '<' then
    try Xml_schema_int.of_string text
    with Xml_schema_int.Schema_syntax_error m -> fail "%s: %s" path m
  else
    match Schema_parser.parse_result text with
    | Ok s -> s
    | Error e -> fail "%s: %s" path e

let load_document path =
  try Syntax.of_xml_string (read_file path)
  with Syntax.Syntax_error m -> fail "%s: %s" path m

let write_output out text =
  match out with
  | None -> print_string text
  | Some path ->
    let oc = open_out_bin path in
    output_string oc text;
    close_out oc

(* Usage and input errors exit 2 with the message on stderr. Commands
   run with [--format json] pass the format along so stdout still
   carries one valid JSON envelope (the error as an AXM000 diagnostic)
   — a consumer parsing the output never sees an empty or truncated
   stream. *)
let wrap ?(format = `Text) f =
  let input_error m =
    (match format with
     | `Json -> Report.print_json Fmt.stdout (Report.error_envelope m)
     | `Text -> ());
    Fmt.epr "error: %s@." m;
    2
  in
  match f () with
  | code -> code
  | exception Cli_error m -> input_error m
  | exception Sys_error m -> input_error m

(* ------------------------------------------------------------------ *)
(* Common arguments                                                    *)
(* ------------------------------------------------------------------ *)

let doc_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC.xml"
         ~doc:"Intensional XML document.")

let schema_arg flags docv doc =
  Arg.(required & opt (some file) None & info flags ~docv ~doc)

let sender_arg = schema_arg [ "f"; "from" ] "SCHEMA" "The sender schema (s0)."
let target_arg = schema_arg [ "t"; "to" ] "SCHEMA" "The exchange schema."

let k_arg =
  Arg.(value & opt int 1 & info [ "k"; "depth" ] ~docv:"N"
         ~doc:"Maximum rewriting depth (Definition 7).")

let possible_arg =
  Arg.(value & flag & info [ "possible" ]
         ~doc:"Use possible rewriting instead of safe rewriting.")

(* Shared by lint, diff, migrate, batch and compat, so the report
   surface stays one: JSON mode always prints a single envelope on
   stdout, even on usage/input errors (see [wrap]). *)
let format_arg =
  Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
       & info [ "format" ] ~docv:"FORMAT"
           ~doc:"Report format: $(b,text) or $(b,json).")

let deny_arg =
  let sev =
    Arg.enum
      [ ("error", Axml_analysis.Diagnostic.Error);
        ("warning", Axml_analysis.Diagnostic.Warning);
        ("hint", Axml_analysis.Diagnostic.Hint) ]
  in
  Arg.(value & opt sev Axml_analysis.Diagnostic.Error
       & info [ "deny" ] ~docv:"SEVERITY"
           ~doc:"Exit non-zero when any diagnostic reaches $(docv) \
                 ($(b,error), $(b,warning) or $(b,hint); default \
                 $(b,error)).")

(* ------------------------------------------------------------------ *)
(* validate                                                            *)
(* ------------------------------------------------------------------ *)

let validate_cmd =
  let run schema_path doc_path =
    wrap (fun () ->
        let schema = load_schema schema_path in
        let doc = load_document doc_path in
        let ctx = Validate.ctx schema in
        match Validate.document_violations ctx doc with
        | [] ->
          Fmt.pr "valid: the document is an instance of the schema@.";
          0
        | violations ->
          List.iter (Fmt.pr "%a@." Validate.pp_violation) violations;
          1)
  in
  let schema = schema_arg [ "s"; "schema" ] "SCHEMA" "The schema to validate against." in
  Cmd.v
    (Cmd.info "validate" ~doc:"Check that a document is an instance of a schema.")
    Term.(const run $ schema $ doc_arg)

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let check_cmd =
  let run sender target k possible doc_path =
    wrap (fun () ->
        let s0 = load_schema sender in
        let exchange = load_schema target in
        let doc = load_document doc_path in
        let rw = Rewriter.create ~k ~s0 ~target:exchange () in
        let mode =
          if possible then Rewriter.Check_possible else Rewriter.Check_safe
        in
        match (Rewriter.check ~mode rw doc).failures with
        | [] ->
          Fmt.pr "%s: the document rewrites into the exchange schema@."
            (if possible then "possible" else "safe");
          0
        | fs ->
          List.iter (Fmt.pr "%a@." Rewriter.pp_failure) fs;
          1)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Decide whether a document safely (or possibly) rewrites into an \
             exchange schema, without invoking anything.")
    Term.(const run $ sender_arg $ target_arg $ k_arg $ possible_arg
          $ doc_arg)

(* ------------------------------------------------------------------ *)
(* rewrite                                                             *)
(* ------------------------------------------------------------------ *)

let oracle_arg =
  Arg.(value
       & opt (enum [ ("random", `Random); ("fail", `Fail); ("flaky", `Flaky) ])
           `Random
       & info [ "oracle" ] ~docv:"KIND"
           ~doc:"Simulated services: $(b,random) honest outputs drawn from \
                 the signatures, $(b,fail) stubs that refuse every call, or \
                 $(b,flaky) honest services that fail every 7th call.")

(* Invokers must be thread-safe: [batch --jobs N] calls them from
   several domains at once. The generator is one mutable PRNG stream,
   so draws are serialized behind a mutex; the flaky counter is an
   atomic. *)
let make_invoker ~env ~s0 oracle =
  match oracle with
  | `Fail -> fun name _ -> fail "service %s is unavailable (--oracle fail)" name
  | `Random ->
    let g = Generate.create ~env s0 in
    let lock = Mutex.create () in
    fun name _params ->
      Mutex.protect lock (fun () -> Generate.output_instance g name)
  | `Flaky ->
    let g = Generate.create ~env s0 in
    let lock = Mutex.create () in
    let count = Atomic.make 0 in
    fun name _params ->
      if (Atomic.fetch_and_add count 1 + 1) mod 7 = 0 then
        failwith ("service " ^ name ^ ": transient failure")
      else Mutex.protect lock (fun () -> Generate.output_instance g name)

let metrics_out_arg =
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE"
         ~doc:"Dump the metrics registry to $(docv) on exit: Prometheus \
               text format, or JSON when $(docv) ends in .json.")


let out_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Where to write the materialized document (default stdout).")

let rewrite_cmd =
  let run sender target k possible oracle out doc_path =
    wrap (fun () ->
        let s0 = load_schema sender in
        let exchange = load_schema target in
        let doc = load_document doc_path in
        let env = Schema.env_of_schemas s0 exchange in
        let invoker = make_invoker ~env ~s0 oracle in
        let config =
          { Enforcement.default_config with
            Enforcement.k; fallback_possible = possible }
        in
        let result = Enforcement.enforce ~config ~s0 ~exchange ~invoker doc in
        (* the materialized document owns stdout; outcomes go to stderr *)
        Report.print_outcome ~ppf:Fmt.stderr ~label:doc_path result;
        match result with
        | Ok (doc', _) ->
          write_output out (Syntax.to_xml_string doc');
          0
        | Error _ -> 1)
  in
  Cmd.v
    (Cmd.info "rewrite"
       ~doc:"Materialize a document so it conforms to an exchange schema, \
             using simulated services.")
    Term.(const run $ sender_arg $ target_arg $ k_arg $ possible_arg
          $ oracle_arg $ out_arg $ doc_arg)

(* ------------------------------------------------------------------ *)
(* batch                                                               *)
(* ------------------------------------------------------------------ *)

let batch_cmd =
  let docs_arg =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"DOC.xml"
           ~doc:"Intensional XML documents, enforced in order.")
  in
  let stats_json_arg =
    Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE"
           ~doc:"Write the batch statistics as JSON to $(docv).")
  in
  let retries_arg =
    Arg.(value & opt int 2 & info [ "retries" ] ~docv:"N"
           ~doc:"Retry each failing invocation up to $(docv) times (with \
                 exponential backoff) before giving up on the document.")
  in
  let timeout_ms_arg =
    Arg.(value & opt (some int) None & info [ "timeout-ms" ] ~docv:"MS"
           ~doc:"Wall-clock budget per invocation, covering all its retry \
                 attempts (default unbounded).")
  in
  let breaker_arg =
    Arg.(value & opt int 5 & info [ "breaker-threshold" ] ~docv:"N"
           ~doc:"Trip a per-service circuit breaker after $(docv) \
                 consecutive failures.")
  in
  let jobs_arg =
    Arg.(value & opt int 1 & info [ "jobs" ] ~docv:"N"
           ~doc:"Enforce the batch on $(docv) domains in parallel. \
                 Outcomes are reported in input order regardless.")
  in
  let min_k_arg =
    Arg.(value & flag & info [ "min-k" ]
           ~doc:"Also search, per document, for the minimal depth at which \
                 a safe (and a possible) rewriting exists, up to $(b,--k); \
                 the distribution lands in the batch statistics and the \
                 $(b,axml_enforce_min_k_total) metric.")
  in
  let run sender target k possible oracle retries timeout_ms
      breaker_threshold jobs min_k format stats_out metrics_out doc_paths =
    wrap ~format (fun () ->
        let s0 = load_schema sender in
        let exchange = load_schema target in
        let env = Schema.env_of_schemas s0 exchange in
        let invoker = make_invoker ~env ~s0 oracle in
        let resilience =
          Resilience.create
            ~policy:
              (Resilience.policy ~max_retries:retries ~backoff_s:0.001
                 ?timeout_s:(Option.map (fun ms -> float_of_int ms /. 1000.) timeout_ms)
                 ~breaker_threshold ())
            ()
        in
        let config =
          { Enforcement.k; fallback_possible = possible;
            resilience = Some resilience }
        in
        let pipeline = Enforcement.Pipeline.create ~config ~s0 ~exchange ~invoker () in
        (* JSON mode owes stdout a single envelope, so per-document
           outcome lines move to stderr *)
        let report path result =
          match format with
          | `Text -> Report.print_outcome ~label:path result
          | `Json -> Report.print_outcome ~ppf:Fmt.stderr ~label:path result
        in
        (* the minimal-k search runs on this domain, outside the clocked
           enforcement calls: before each document when streaming,
           after the batch when sharded *)
        let tally = ref Report.no_min_k in
        let search doc =
          if min_k then
            tally := Report.add_min_k !tally (Enforcement.Pipeline.minimal_k pipeline doc)
        in
        let elapsed_s = ref 0. in
        let clocked f x =
          let started = Unix.gettimeofday () in
          let r = f x in
          elapsed_s := !elapsed_s +. (Unix.gettimeofday () -. started);
          r
        in
        let results =
          if jobs <= 1 then
            (* stream: enforce and report one document at a time *)
            List.rev
              (List.fold_left
                 (fun results path ->
                   let doc = load_document path in
                   search doc;
                   let result = clocked (Enforcement.Pipeline.enforce pipeline) doc in
                   report path result;
                   result :: results)
                 [] doc_paths)
          else begin
            (* batch: results come back in input order, so the report
               reads exactly like the streamed one *)
            let docs = List.map load_document doc_paths in
            let results = clocked (Enforcement.Pipeline.enforce_many pipeline ~jobs) docs in
            List.iter search docs;
            List.iter2 report doc_paths results;
            results
          end
        in
        let stats =
          Report.run_stats ~results ~elapsed_s:!elapsed_s
            ~contract:(Enforcement.Pipeline.contract pipeline) ~resilience
            ~min_k:!tally
        in
        (match format with
         | `Text -> ()
         | `Json ->
           Report.print_json Fmt.stdout
             (Report.batch_json ~sender ~exchange:target
                ~outcomes:(List.combine doc_paths results) stats));
        Report.print_run_stats stats;
        Option.iter
          (fun file ->
            Axml_obs.Json.to_file file (Report.stats_json ~sender ~exchange:target stats))
          stats_out;
        Option.iter Report.write_metrics metrics_out;
        if List.exists Result.is_error results then 1 else 0)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Enforce an exchange schema over a stream of documents through \
             one compiled pipeline (shared contract win tables and \
             retry/timeout/circuit-breaker guard), reporting per-document \
             outcomes and batch statistics. With $(b,--jobs) N the batch \
             is sharded across N domains.")
    Term.(const run $ sender_arg $ target_arg $ k_arg $ possible_arg
          $ oracle_arg $ retries_arg $ timeout_ms_arg
          $ breaker_arg $ jobs_arg $ min_k_arg $ format_arg
          $ stats_json_arg $ metrics_out_arg $ docs_arg)

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let buffer_arg =
    Arg.(value & opt int 4096 & info [ "buffer" ] ~docv:"N"
           ~doc:"Keep the last $(docv) trace events (older ones are dropped).")
  in
  let jsonl_arg =
    Arg.(value & opt (some string) None & info [ "jsonl" ] ~docv:"FILE"
           ~doc:"Also write the recorded events to $(docv), one JSON object \
                 per line.")
  in
  let retries_arg =
    Arg.(value & opt int 2 & info [ "retries" ] ~docv:"N"
           ~doc:"Retry each failing invocation up to $(docv) times before \
                 giving up on the document.")
  in
  let print_events events =
    match events with
    | [] -> Fmt.pr "(no events recorded)@."
    | (first : Trace.event) :: _ ->
      let t0 = first.Trace.time_s in
      List.iter
        (fun (e : Trace.event) ->
          Fmt.pr "#%03d %+9.1f us  %s%a@." e.Trace.seq
            ((e.Trace.time_s -. t0) *. 1e6)
            (String.make (2 * e.Trace.depth) ' ')
            Trace.pp_kind e.Trace.kind)
        events
  in
  let run sender target k possible oracle retries buffer jsonl
      metrics_out doc_path =
    wrap (fun () ->
        let s0 = load_schema sender in
        let exchange = load_schema target in
        let doc = load_document doc_path in
        let env = Schema.env_of_schemas s0 exchange in
        let invoker = make_invoker ~env ~s0 oracle in
        let resilience =
          Resilience.create
            ~policy:(Resilience.policy ~max_retries:retries ~backoff_s:0.001 ())
            ()
        in
        let config =
          { Enforcement.k; fallback_possible = possible;
            resilience = Some resilience }
        in
        let pipeline =
          Enforcement.Pipeline.create ~config ~s0 ~exchange ~invoker ()
        in
        let buf = Trace.buffer ~capacity:buffer () in
        Trace.set_sink Trace.default (Trace.Memory buf);
        (* one interactive document: exact per-event timestamps beat
           the amortized-clock default *)
        Trace.set_clock_every Trace.default 1;
        let started = Unix.gettimeofday () in
        let result =
          Fun.protect
            ~finally:(fun () ->
              Trace.set_sink Trace.default Trace.Null;
              Trace.set_clock_every Trace.default 32)
            (fun () -> Enforcement.Pipeline.enforce pipeline doc)
        in
        let elapsed_s = Unix.gettimeofday () -. started in
        let events = Trace.buffer_events buf in
        Fmt.pr "trace: %s -> %s (k=%d, %d event(s)%s)@." doc_path target k
          (Trace.buffer_pushed buf)
          (let dropped = Trace.buffer_pushed buf - List.length events in
           if dropped > 0 then Fmt.str ", %d dropped" dropped else "");
        print_events events;
        Option.iter
          (fun file ->
            let oc = open_out_bin file in
            List.iter
              (fun e ->
                output_string oc (Axml_obs.Json.to_string (Trace.event_to_json e));
                output_char oc '\n')
              events;
            close_out oc)
          jsonl;
        Report.print_outcome ~label:doc_path result;
        Report.print_run_stats
          (Report.run_stats ~results:[ result ] ~elapsed_s
             ~contract:(Enforcement.Pipeline.contract pipeline) ~resilience
             ~min_k:Report.no_min_k);
        Option.iter Report.write_metrics metrics_out;
        if Result.is_ok result then 0 else 1)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Replay one enforcement with the decision tracer attached and \
             print the per-decision trace: validation, cache queries, fork \
             choices, invocation attempts, retries, breaker transitions and \
             the final accept/reject/fault verdict.")
    Term.(const run $ sender_arg $ target_arg $ k_arg $ possible_arg
          $ oracle_arg $ retries_arg $ buffer_arg $ jsonl_arg
          $ metrics_out_arg $ doc_arg)

(* ------------------------------------------------------------------ *)
(* lint                                                                *)
(* ------------------------------------------------------------------ *)

(* Load a schema for linting: textual schemas come back with the source
   positions of their declarations, XML ones without. *)
let load_schema_positions path =
  let text = read_file path in
  let trimmed = String.trim text in
  if String.length trimmed > 0 && trimmed.[0] = '<' then
    try (Xml_schema_int.of_string text, None)
    with Xml_schema_int.Schema_syntax_error m -> fail "%s: %s" path m
  else
    match Schema_parser.parse_with_positions text with
    | s, positions -> (s, Some positions)
    | exception Schema_parser.Parse_error { line; col; message } ->
      if line = 0 then fail "%s: %s" path message
      else fail "%s: line %d, col %d: %s" path line col message

let lint_cmd =
  let schema_opt_arg =
    Arg.(value & opt (some file) None
         & info [ "s"; "schema" ] ~docv:"SCHEMA"
             ~doc:"Lint a single schema (schema-level rules only).")
  in
  let sender_opt_arg =
    Arg.(value & opt (some file) None & info [ "f"; "from" ] ~docv:"SCHEMA"
           ~doc:"The sender schema (s0) of an exchange to lint.")
  in
  let target_opt_arg =
    Arg.(value & opt (some file) None & info [ "t"; "to" ] ~docv:"SCHEMA"
           ~doc:"The exchange schema of an exchange to lint.")
  in
  let docs_arg =
    Arg.(value & pos_all file [] & info [] ~docv:"DOC.xml"
           ~doc:"Intensional XML documents to lint against the exchange \
                 contract (requires $(b,-f)/$(b,-t)).")
  in
  let run schema_opt sender_opt target_opt k format deny metrics_out
      doc_paths =
    wrap ~format (fun () ->
        let module Lint = Axml_analysis.Lint in
        let module Diagnostic = Axml_analysis.Diagnostic in
        let lint_schema_file path =
          let s, positions = load_schema_positions path in
          Lint.lint_schema ~file:path ?positions s
        in
        let diagnostics =
          match (schema_opt, sender_opt, target_opt) with
          | Some path, None, None ->
            if doc_paths <> [] then
              fail "linting documents needs the exchange pair (-f/-t), not -s";
            lint_schema_file path
          | None, Some sender, Some target ->
            let s0, _ = load_schema_positions sender in
            let exchange, _ = load_schema_positions target in
            let contract =
              try
                Axml_core.Contract.create ~k ~s0 ~target:exchange ()
              with Schema.Schema_error e ->
                fail "%s" (Fmt.str "schema pair: %a" Schema.pp_error e)
            in
            let tag path (d : Diagnostic.t) =
              { d with Diagnostic.loc = { d.Diagnostic.loc with
                                          Diagnostic.file = Some path } }
            in
            lint_schema_file sender @ lint_schema_file target
            @ List.map (tag sender) (Lint.lint_contract contract)
            @ List.concat_map
                (fun path ->
                  List.map (tag path)
                    (Lint.lint_document contract (load_document path)))
                doc_paths
          | _ ->
            fail
              "pass either -s SCHEMA, or -f SENDER -t EXCHANGE [DOC.xml ...]"
        in
        Report.print_diagnostics ~format diagnostics;
        Option.iter Report.write_metrics metrics_out;
        if Diagnostic.exceeds ~deny diagnostics then 1 else 0)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically analyze schemas, exchange contracts and documents: \
             empty or ambiguous content models, unreachable or uninhabited \
             elements, never-safe functions, incompatible schema pairs, \
             doomed calls — before anything is exchanged or invoked.")
    Term.(const run $ schema_opt_arg $ sender_opt_arg $ target_opt_arg
          $ k_arg $ format_arg $ deny_arg $ metrics_out_arg
          $ docs_arg)

(* ------------------------------------------------------------------ *)
(* diff / migrate (schema evolution)                                   *)
(* ------------------------------------------------------------------ *)

module Evolution = Axml_analysis.Evolution

let diff_cmd =
  let run sender target k format deny metrics_out =
    wrap ~format (fun () ->
        let v1, from_positions = load_schema_positions sender in
        let v2, to_positions = load_schema_positions target in
        let report =
          Evolution.diff ~k ~from_file:sender ?from_positions
            ~to_file:target ?to_positions ~v1 ~v2 ()
        in
        Report.print_diff ~format ~from_file:sender ~to_file:target report;
        Option.iter Report.write_metrics metrics_out;
        if
          Axml_analysis.Diagnostic.exceeds ~deny
            report.Evolution.r_diagnostics
        then 1
        else 0)
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Diff two versions of an exchange schema: classify each label \
             and function as identical, widened, narrowed or incompatible \
             (Glushkov-DFA inclusion), lift the per-label changes to \
             contract-level verdicts (Section 6 against the pair), and \
             report AXM04x diagnostics with source positions.")
    Term.(const run $ sender_arg $ target_arg $ k_arg $ format_arg $ deny_arg
          $ metrics_out_arg)

let migrate_cmd =
  let docs_arg =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"DOC.xml"
           ~doc:"Archived documents of the old version to advise.")
  in
  let run sender target k format metrics_out doc_paths =
    wrap ~format (fun () ->
        let v1 = load_schema sender in
        let v2 = load_schema target in
        let docs = List.map (fun p -> (p, load_document p)) doc_paths in
        let migration =
          try Evolution.migrate ~k ~v1 ~v2 docs
          with Schema.Schema_error e ->
            fail "%s" (Fmt.str "schema pair: %a" Schema.pp_error e)
        in
        Report.print_migration ~format ~from_file:sender ~to_file:target
          migration;
        Option.iter Report.write_metrics metrics_out;
        if migration.Evolution.g_migratable then 0 else 1)
  in
  Cmd.v
    (Cmd.info "migrate"
       ~doc:"Advise an archived corpus on moving to a new schema version: \
             per document, whether it conforms as-is, rewrites safely after \
             materializing a named set of calls, rewrites only possibly, or \
             cannot migrate (AXM042). Exits 0 only when every document \
             conforms or materializes safely.")
    Term.(const run $ sender_arg $ target_arg $ k_arg $ format_arg
          $ metrics_out_arg $ docs_arg)

(* ------------------------------------------------------------------ *)
(* serve / call / send / federation (the networked peer)               *)
(* ------------------------------------------------------------------ *)

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR"
         ~doc:"Address to bind or connect to.")

let port_arg ~default doc =
  Arg.(value & opt int default & info [ "p"; "port" ] ~docv:"PORT" ~doc)

let serve_cmd =
  let dir_arg =
    Arg.(value & opt (some string) None & info [ "dir" ] ~docv:"DIR"
           ~doc:"Persist the repository under $(docv) (journal + \
                 snapshots); recovered on restart.")
  in
  let name_srv_arg =
    Arg.(value & opt string "axml" & info [ "name" ] ~docv:"NAME"
           ~doc:"The peer's name (answered to pings).")
  in
  let max_connections_arg =
    Arg.(value
         & opt int Axml_net.Server.default_config.Axml_net.Server.max_connections
         & info [ "max-connections" ] ~docv:"N"
             ~doc:"Concurrent connections accepted; excess are refused.")
  in
  let max_in_flight_arg =
    Arg.(value
         & opt int Axml_net.Server.default_config.Axml_net.Server.max_in_flight
         & info [ "max-in-flight" ] ~docv:"N"
             ~doc:"Requests served at once across all connections; excess \
                   are answered with an $(b,overloaded) error (admission \
                   control), never queued.")
  in
  let run name schema_path dir host port k possible oracle
      max_connections max_in_flight =
    wrap (fun () ->
        let schema = load_schema schema_path in
        let peer = Axml_peer.Peer.create ~name ~schema () in
        (* every declared function becomes a provided service, served by
           the chosen oracle — the peer answers calls out of the box *)
        (match oracle with
         | `Fail -> ()
         | (`Random | `Flaky) as o ->
           let env = Schema.env_of_schemas schema schema in
           List.iter
             (fun fname ->
               match Schema.find_function schema fname with
               | None -> ()
               | Some f ->
                 let behaviour =
                   let honest =
                     Axml_services.Oracle.honest_random ~env schema fname
                   in
                   match o with
                   | `Random -> honest
                   | `Flaky -> Axml_services.Oracle.flaky ~period:7 honest
                 in
                 Axml_peer.Peer.provide peer ~name:fname
                   ~input:f.Schema.f_input ~output:f.Schema.f_output
                   (Axml_peer.Peer.Compute behaviour))
             (Schema.function_names schema));
        Axml_peer.Peer.configure peer
          { Axml_peer.Peer.default_config with
            Axml_peer.Peer.k; fallback_possible = possible };
        let repo = Option.map (fun dir -> Axml_net.Repo.attach ~dir peer) dir in
        let endpoint = Axml_net.Endpoint.create ?repo peer in
        let config = { Axml_net.Server.max_connections; max_in_flight } in
        let server = Axml_net.Server.start ~config ~host ~port endpoint in
        Fmt.pr "%s: serving on %s:%d (binary + HTTP; GET /metrics, POST \
                /exchange)@."
          name host (Axml_net.Server.port server);
        Option.iter
          (fun r ->
            Fmt.pr "%s: repository under %s (%d document(s) recovered)@." name
              (Axml_net.Repo.dir r) (Axml_net.Repo.recovered r))
          repo;
        let stop = ref false in
        let request_stop _ = stop := true in
        Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
        Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
        while not !stop do Unix.sleepf 0.2 done;
        Fmt.pr "%s: draining...@." name;
        Axml_net.Server.stop server;
        Option.iter Axml_net.Repo.close repo;
        0)
  in
  let schema = schema_arg [ "s"; "schema" ] "SCHEMA" "The peer's schema." in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run a peer as a network server: the framed binary protocol \
             and a minimal HTTP front (GET /metrics, POST /exchange) on one \
             port. Declared functions are provided as services backed by \
             the chosen oracle. Stops gracefully on SIGINT/SIGTERM.")
    Term.(const run $ name_srv_arg $ schema $ dir_arg $ host_arg
          $ port_arg ~default:7411 "Port to listen on (0 = ephemeral)."
          $ k_arg $ possible_arg $ oracle_arg
          $ max_connections_arg $ max_in_flight_arg)

let call_cmd =
  let method_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"METHOD"
           ~doc:"The service to invoke.")
  in
  let params_arg =
    Arg.(value & pos_right 0 string [] & info [] ~docv:"PARAM"
           ~doc:"Parameters: existing files are parsed as intensional XML \
                 documents, anything else is passed as character data.")
  in
  let run host port method_name params =
    wrap (fun () ->
        let params =
          List.map
            (fun p ->
              if Sys.file_exists p then load_document p
              else Axml_core.Document.data p)
            params
        in
        let client = Axml_net.Client.connect ~host ~port () in
        Fun.protect ~finally:(fun () -> Axml_net.Client.close client)
        @@ fun () ->
        match Axml_net.Client.call client method_name params with
        | result ->
          List.iter
            (fun d -> print_string (Syntax.to_xml_string d))
            result;
          0
        | exception Axml_peer.Peer.Peer_error m ->
          Fmt.epr "fault: %s@." m;
          1
        | exception Axml_net.Client.Net_error m ->
          Fmt.epr "error: %s@." m;
          2)
  in
  Cmd.v
    (Cmd.info "call"
       ~doc:"Invoke a service on a served peer (a SOAP envelope over the \
             wire) and print the result forest.")
    Term.(const run $ host_arg
          $ port_arg ~default:7411 "Port the peer listens on."
          $ method_arg $ params_arg)

let send_cmd =
  let as_arg =
    Arg.(value & opt string "inbox" & info [ "as" ] ~docv:"NAME"
           ~doc:"Store the document under $(docv) on the receiving peer.")
  in
  let import_arg =
    Arg.(value & flag & info [ "import" ]
           ~doc:"Import the receiver's services (via their WSDL) to \
                 materialize calls, instead of simulating them with \
                 oracles.")
  in
  let run host port sender_path exchange_path k possible oracle
      import as_name doc_path =
    wrap (fun () ->
        let s0 = load_schema sender_path in
        let exchange = load_schema exchange_path in
        let doc = load_document doc_path in
        let sender = Axml_peer.Peer.create ~name:"axml-send" ~schema:s0 () in
        Axml_peer.Peer.configure sender
          { Axml_peer.Peer.default_config with
            Axml_peer.Peer.k; fallback_possible = possible };
        let client = Axml_net.Client.connect ~host ~port () in
        Fun.protect ~finally:(fun () -> Axml_net.Client.close client)
        @@ fun () ->
        if import then
          ignore (Axml_net.Client.import_services client ~into:sender)
        else begin
          let env = Schema.env_of_schemas s0 exchange in
          let invoker = make_invoker ~env ~s0 oracle in
          List.iter
            (fun fname ->
              match Schema.find_function s0 fname with
              | None -> ()
              | Some f ->
                Axml_services.Registry.register
                  (Axml_peer.Peer.registry sender)
                  (Axml_services.Service.make ~input:f.Schema.f_input
                     ~output:f.Schema.f_output fname
                     (fun ps -> invoker fname ps)))
            (Schema.function_names s0)
        end;
        match
          Axml_net.Client.send client ~sender ~exchange ~as_name doc
        with
        | Ok outcome ->
          Fmt.pr "accepted: stored as %S (%d wire byte(s), %d invocation(s))@."
            as_name outcome.Axml_peer.Peer.wire_bytes
            (List.length outcome.Axml_peer.Peer.report.Enforcement.invocations);
          0
        | Error e ->
          Fmt.pr "%a@." Enforcement.pp_error e;
          1
        | exception Axml_net.Client.Net_error m ->
          Fmt.epr "error: %s@." m;
          2)
  in
  Cmd.v
    (Cmd.info "send"
       ~doc:"Enforce a document against an exchange schema locally (the \
             sender side) and ship it to a served peer, which re-validates \
             and stores it.")
    Term.(const run $ host_arg
          $ port_arg ~default:7411 "Port the receiving peer listens on."
          $ sender_arg $ target_arg $ k_arg $ possible_arg $ oracle_arg
          $ import_arg $ as_arg $ doc_arg)

let federation_cmd =
  let smoke_arg =
    Arg.(value & flag & info [ "smoke" ]
           ~doc:"CI mode: a short stream and quiet output.")
  in
  let docs_n_arg =
    Arg.(value & opt (some int) None & info [ "docs" ] ~docv:"N"
           ~doc:"Documents to stream from sender to receiver (default 25, \
                 or 5 with $(b,--smoke)).")
  in
  let dir_arg =
    Arg.(value & opt (some string) None & info [ "dir" ] ~docv:"DIR"
           ~doc:"Repository directory for the receiving peer (default: a \
                 fresh temporary directory).")
  in
  let fed_k_arg =
    Arg.(value & opt int 2 & info [ "k"; "depth" ] ~docv:"N"
           ~doc:"Rewriting depth for the whole federation, agreed on the \
                 wire. The demo's document stream needs $(docv) >= 2 to be \
                 accepted; at 1 both transports must refuse identically.")
  in
  let run smoke docs_n dir k =
    wrap (fun () ->
        let docs =
          match docs_n with Some n -> n | None -> if smoke then 5 else 25
        in
        let dir =
          match dir with
          | Some d -> d
          | None ->
            let d =
              Filename.concat (Filename.get_temp_dir_name ())
                (Fmt.str "axml-federation-%d" (Unix.getpid ()))
            in
            d
        in
        Federation.run ~docs ~dir ~quiet:smoke ~k ())
  in
  Cmd.v
    (Cmd.info "federation"
       ~doc:"Run the three-peer federation demo over loopback sockets: one \
             peer hosts services, a sender imports them from their WSDL and \
             enforces documents against a receiver's exchange schema, and \
             every outcome is checked byte-for-byte against an in-process \
             twin. The whole federation enforces at one rewriting depth \
             ($(b,--k)), agreed when each exchange opens. Also exercises \
             killed clients, a slow-service brownout, the HTTP front and \
             crash recovery. Exits 0 only if every check passes.")
    Term.(const run $ smoke_arg $ docs_n_arg $ dir_arg $ fed_k_arg)

let soak_cmd =
  let smoke_arg =
    Arg.(value & flag & info [ "smoke" ]
           ~doc:"CI mode: a ~10s run with 0.5s windows and quiet \
                 per-window output (unless $(b,--duration) / \
                 $(b,--window) override it).")
  in
  let spawn_arg =
    Arg.(value & flag & info [ "spawn" ]
           ~doc:"Spawn the served peer as a separate process ($(b,axml \
                 serve) on an ephemeral port, fork/exec) and tear it down \
                 afterwards, instead of connecting to $(b,--host) / \
                 $(b,--port).")
  in
  let duration_arg =
    Arg.(value & opt (some float) None & info [ "duration" ] ~docv:"SECONDS"
           ~doc:"Total run length (default 60, or 10 with $(b,--smoke)).")
  in
  let workers_arg =
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N"
           ~doc:"Steady-state worker concurrency; the flash crowd runs \
                 4x$(docv) (at least 8) workers.")
  in
  let window_arg =
    Arg.(value & opt (some float) None & info [ "window" ] ~docv:"SECONDS"
           ~doc:"Observation window length (default 1, or 0.5 with \
                 $(b,--smoke)).")
  in
  let seed_arg =
    Arg.(value & opt int 2003 & info [ "seed" ] ~docv:"N"
           ~doc:"Seed for the document streams, the profile pickers and \
                 the oracles: a fixed seed reproduces the traffic mix and \
                 the structural verdict.")
  in
  let churn_to_arg =
    Arg.(value & opt (some file) None & info [ "churn-to" ] ~docv:"SCHEMA"
           ~doc:"Exchange schema the churn phase flips the agreement to \
                 (default: the sender schema itself, so churned documents \
                 stay shippable).")
  in
  let no_churn_arg =
    Arg.(value & flag & info [ "no-churn" ]
           ~doc:"Drop the schema-churn phase from the schedule.")
  in
  let out_arg =
    Arg.(value & opt string "BENCH_SOAK.json" & info [ "o"; "out" ]
           ~docv:"FILE"
           ~doc:"Where to write the full time series + verdict JSON \
                 ($(b,-) for none).")
  in
  let run host port sender_path exchange_path k smoke spawn duration workers
      window seed churn_to no_churn out =
    wrap (fun () ->
        let s0 = load_schema sender_path in
        let exchange = load_schema exchange_path in
        let churn =
          if no_churn then None
          else
            match churn_to with
            | Some path -> Some (load_schema path)
            | None -> Some s0
        in
        let duration_s =
          match duration with
          | Some d -> d
          | None -> if smoke then 10. else 60.
        in
        let window_s =
          match window with Some w -> w | None -> if smoke then 0.5 else 1.
        in
        let out = if out = "-" then None else Some out in
        match
          Soak_driver.run ~quiet:false ~spawn ~host ~port ~s0 ~exchange
            ~exchange_path ~churn ~k ~duration_s ~workers ~window_s ~seed
            ~out ()
        with
        | code -> code
        | exception Soak_driver.Soak_failed m -> fail "%s" m)
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:"Hold a seeded adversarial workload against a served peer and \
             grade the run: phase-scheduled traffic (warm-up, steady \
             state, schema churn, flash crowd, brownout, recovery) with \
             fault injection driving the resilience breakers, per-window \
             p50/p99/p999 latency, throughput, heap high-water and breaker \
             dynamics, and a deterministic structural verdict written with \
             the full time series to BENCH_SOAK.json (see BENCHMARKS.md). \
             Serve the peer in another terminal ($(b,axml serve)) or let \
             $(b,--spawn) fork one. Exits 0 only if every check passes.")
    Term.(const run $ host_arg
          $ port_arg ~default:7411 "Port the served peer listens on."
          $ sender_arg $ target_arg $ k_arg $ smoke_arg $ spawn_arg
          $ duration_arg $ workers_arg $ window_arg $ seed_arg $ churn_to_arg
          $ no_churn_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* compat                                                              *)
(* ------------------------------------------------------------------ *)

let compat_cmd =
  let root_arg =
    Arg.(value & opt (some string) None & info [ "r"; "root" ] ~docv:"LABEL"
           ~doc:"Root label (defaults to the sender schema's declared root).")
  in
  let run sender target k format root =
    wrap ~format (fun () ->
        let s0 = load_schema sender in
        let exchange = load_schema target in
        let root =
          match root, s0.Schema.root with
          | Some r, _ -> r
          | None, Some r -> r
          | None, None -> fail "no root label: pass --root or declare one in the schema"
        in
        let result =
          Schema_rewrite.check ~root
            (Axml_core.Contract.create ~k ~s0 ~target:exchange ())
        in
        (match format with
         | `Json ->
           Report.print_json Fmt.stdout
             (Evolution.compat_to_json ~from_file:sender ~to_file:target ~k
                result)
         | `Text ->
           List.iter
             (fun (v : Schema_rewrite.label_verdict) ->
               Fmt.pr "%-24s %s@." v.Schema_rewrite.v_label
                 (match v.Schema_rewrite.v_reason with
                  | None -> "ok"
                  | Some r -> "FAIL: " ^ r))
             result.Schema_rewrite.verdicts;
           if result.Schema_rewrite.compatible then
             Fmt.pr "COMPATIBLE: every document of the sender schema safely \
                     rewrites into the exchange schema@."
           else Fmt.pr "INCOMPATIBLE@.");
        if result.Schema_rewrite.compatible then 0 else 1)
  in
  Cmd.v
    (Cmd.info "compat"
       ~doc:"Schema-level safe rewriting (Section 6): can every document of \
             one schema be safely rewritten into another?")
    Term.(const run $ sender_arg $ target_arg $ k_arg $ format_arg $ root_arg)

(* ------------------------------------------------------------------ *)
(* schema (convert / pretty-print)                                     *)
(* ------------------------------------------------------------------ *)

let schema_cmd =
  let to_arg =
    Arg.(value & opt (enum [ ("text", `Text); ("xml", `Xml) ]) `Text
         & info [ "to" ] ~docv:"FORMAT" ~doc:"Output format: $(b,text) or $(b,xml).")
  in
  let run schema_path fmt out =
    wrap (fun () ->
        let schema = load_schema schema_path in
        (match fmt with
         | `Text -> write_output out (Fmt.str "%a" Schema.pp schema)
         | `Xml -> write_output out (Xml_schema_int.to_string schema));
        0)
  in
  let schema = schema_arg [ "s"; "schema" ] "SCHEMA" "The schema to convert." in
  Cmd.v
    (Cmd.info "schema"
       ~doc:"Parse a schema (textual or XML Schema_int) and print it in \
             either syntax.")
    Term.(const run $ schema $ to_arg $ out_arg)

let () =
  let info =
    Cmd.info "axml" ~version:"1.0.0"
      ~doc:"Exchanging intensional XML data: validation, safe/possible \
            rewriting, and schema compatibility (SIGMOD 2003)."
  in
  exit (Cmd.eval' (Cmd.group info
                     [ validate_cmd; check_cmd; rewrite_cmd; batch_cmd;
                       trace_cmd; lint_cmd; diff_cmd; migrate_cmd;
                       compat_cmd; schema_cmd; serve_cmd; call_cmd;
                       send_cmd; federation_cmd; soak_cmd ]))
