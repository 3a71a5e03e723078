(* The soak harness behind `axml soak`: hold a seeded adversarial
   workload against a *served* peer — by default one this driver spawns
   as a separate process (`axml serve` via fork/exec), or any peer
   already listening when --host/--port point elsewhere.

   Each worker owns one socket client and one sender peer; all workers
   share one resilience guard (so a breaker tripped by one worker
   short-circuits the others — that is the point) and one scheduled
   oracle per declared function, whose behaviour follows the schedule's
   fault timeline: honest during warm-up and steady state, 50 ms slow
   during the first brownout, dead during the second, honest again for
   recovery. Axml_workload.Soak drives the phases, windows the metrics
   and grades the verdict; this driver maps outcomes, spawns/terminates
   the server, prints progress and writes BENCH_SOAK.json. *)

module Schema = Axml_schema.Schema
module Metrics = Axml_obs.Metrics
module Resilience = Axml_services.Resilience
module Oracle = Axml_services.Oracle
module Service = Axml_services.Service
module Registry = Axml_services.Registry
module Peer = Axml_peer.Peer
module Enforcement = Axml_peer.Enforcement
module Client = Axml_net.Client
module Mix = Axml_workload.Mix
module Schedule = Axml_workload.Schedule
module Soak = Axml_workload.Soak

exception Soak_failed of string

let failf fmt = Fmt.kstr (fun m -> raise (Soak_failed m)) fmt

let say quiet fmt =
  if quiet then Format.ifprintf Fmt.stdout (fmt ^^ "@.")
  else Fmt.pr (fmt ^^ "@.")

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Spawning the served peer (a genuinely separate process)             *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; banner : in_channel }

(* "name: serving on 127.0.0.1:34211 (binary + HTTP; ...)" *)
let parse_banner_port line =
  let needle = "serving on " in
  let rec find i =
    if i + String.length needle > String.length line then None
    else if String.sub line i (String.length needle) = needle then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
    let rest =
      String.sub line
        (i + String.length needle)
        (String.length line - i - String.length needle)
    in
    (match String.index_opt rest ':' with
     | None -> None
     | Some c ->
       let digits = Buffer.create 8 in
       let rec scan j =
         if
           j < String.length rest
           && rest.[j] >= '0'
           && rest.[j] <= '9'
         then begin
           Buffer.add_char digits rest.[j];
           scan (j + 1)
         end
       in
       scan (c + 1);
       int_of_string_opt (Buffer.contents digits))

let spawn_server ~schema_path ~k ~max_connections ~max_in_flight =
  let exe = Sys.executable_name in
  let argv =
    [| exe; "serve"; "-s"; schema_path; "-p"; "0"; "-k"; string_of_int k;
       "--name"; "soak-peer"; "--oracle"; "fail";
       "--max-connections"; string_of_int max_connections;
       "--max-in-flight"; string_of_int max_in_flight |]
  in
  let r, w = Unix.pipe ~cloexec:false () in
  let pid = Unix.create_process exe argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let banner = Unix.in_channel_of_descr r in
  let rec wait_port () =
    match input_line banner with
    | line ->
      (match parse_banner_port line with
       | Some port -> port
       | None -> wait_port ())
    | exception End_of_file ->
      ignore (Unix.waitpid [] pid);
      failf "the spawned server exited before announcing its port"
  in
  let port = wait_port () in
  ({ pid; banner }, port)

let stop_server { pid; banner } =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  close_in_noerr banner

(* ------------------------------------------------------------------ *)
(* The adversarial environment: scheduled oracles + a shared guard     *)
(* ------------------------------------------------------------------ *)

let behaviour_of_fault ~honest ~fname = function
  | Schedule.Healthy -> honest
  | Schedule.Flaky period -> Oracle.flaky ~period honest
  | Schedule.Slow delay_s -> Oracle.timing_out ~delay_s honest
  | Schedule.Dead -> Oracle.failing fname

(* One scheduled behaviour per declared function, shared by every
   worker: the same wall-clock timeline drives them all. *)
let scheduled_services ~schedule ~origin ~env ~s0 =
  let timeline = Schedule.fault_timeline schedule in
  List.filter_map
    (fun fname ->
      match Schema.find_function s0 fname with
      | None -> None
      | Some f ->
        let honest =
          Oracle.honest_random ~seed:schedule.Schedule.seed ~env s0 fname
        in
        let entries =
          List.map
            (fun (t, fault) -> (t, behaviour_of_fault ~honest ~fname fault))
            timeline
        in
        Some (fname, f, Oracle.scheduled ~origin entries))
    (Schema.function_names s0)

(* ------------------------------------------------------------------ *)
(* Progress + verdict rendering                                        *)
(* ------------------------------------------------------------------ *)

let fmt_q v = if Float.is_nan v then "-" else Fmt.str "%.1fms" (v *. 1000.)

let print_window quiet (w : Soak.window) =
  let breakers =
    List.filter (fun (_, st) -> st <> `Closed) w.Soak.w_breakers
  in
  say quiet "  [%5.1fs] %-13s %5d req %7.1f/s  p50 %-7s p99 %-7s%s%s"
    w.Soak.w_end_s w.Soak.w_phase w.Soak.w_requests w.Soak.w_rate
    (fmt_q w.Soak.w_p50) (fmt_q w.Soak.w_p99)
    (if w.Soak.w_trips > 0 then Fmt.str "  trips %d" w.Soak.w_trips else "")
    (if breakers = [] then ""
     else
       "  open: "
       ^ String.concat ","
           (List.map
              (fun (n, st) ->
                n ^ (match st with `Half_open -> "(half)" | _ -> ""))
              breakers))

let print_verdict quiet (r : Soak.report) =
  say quiet "";
  List.iter
    (fun (c : Soak.check) ->
      say quiet "  %-19s %s  %s" c.Soak.check
        (if c.Soak.ok then "ok" else "FAIL")
        c.Soak.detail)
    r.Soak.verdict.Soak.checks;
  let total =
    List.fold_left (fun acc s -> acc + s.Soak.s_requests) 0 r.Soak.phases
  in
  say quiet "";
  say quiet
    "soak %s: %d requests over %.1fs, %d breaker trip(s), heap high water \
     %d words"
    (if r.Soak.verdict.Soak.pass then "PASS" else "FAIL")
    total r.Soak.total_s r.Soak.resilience.Resilience.trips
    r.Soak.heap_high_water_words

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let run ~quiet ~spawn ~host ~port ~s0 ~exchange ~exchange_path ~churn ~k
    ~duration_s ~workers ~window_s ~seed ~out () =
  let churn_schema, with_churn =
    match churn with Some s -> (s, true) | None -> (s0, false)
  in
  let schedule =
    Schedule.default ~seed ~workers ~churn:with_churn ~total_s:duration_s ()
  in
  let n_workers = Schedule.max_workers schedule in
  let max_in_flight = max (workers + 1) (n_workers / 2) in
  let server, port =
    if spawn then begin
      let server, port =
        spawn_server ~schema_path:exchange_path ~k
          ~max_connections:(n_workers + 8) ~max_in_flight
      in
      say quiet "spawned soak-peer (pid %d) on %s:%d (max in-flight %d)"
        server.pid host port max_in_flight;
      (Some server, port)
    end
    else (None, port)
  in
  Fun.protect ~finally:(fun () -> Option.iter stop_server server)
  @@ fun () ->
  let resilience =
    Resilience.create
      ~policy:
        (Resilience.policy ~max_retries:1 ~backoff_s:0.01 ~backoff_factor:2.
           ~breaker_threshold:3
           ~breaker_cooldown_s:(Float.max 0.5 (duration_s *. 0.03))
           ())
      ~seed ()
  in
  let env = Schema.env_of_schemas s0 exchange in
  let services =
    scheduled_services ~schedule ~origin:(Unix.gettimeofday ()) ~env ~s0
  in
  let clients =
    try
      Array.init n_workers (fun _ -> Client.connect ~host ~port ())
    with Unix.Unix_error (e, _, _) ->
      failf "cannot connect to %s:%d: %s (is a peer being served there?)"
        host port (Unix.error_message e)
  in
  Fun.protect ~finally:(fun () -> Array.iter Client.close clients)
  @@ fun () ->
  let senders =
    Array.init n_workers (fun i ->
        let sender =
          Peer.create ~name:(Fmt.str "soak-sender-%02d" i) ~schema:s0 ()
        in
        Peer.configure sender
          { Peer.default_config with
            Peer.k;
            resilience = Some resilience };
        List.iter
          (fun (fname, (f : Schema.func), behaviour) ->
            Registry.register (Peer.registry sender)
              (Service.make ~input:f.Schema.f_input ~output:f.Schema.f_output
                 fname behaviour))
          services;
        sender)
  in
  let send ~worker ~(phase : Schedule.phase) (item : Mix.item) =
    let exchange =
      match phase.Schedule.exchange with
      | `Primary -> exchange
      | `Churned -> churn_schema
    in
    let as_name = Fmt.str "soak-%02d" (item.Mix.seq mod 64) in
    match
      Client.send clients.(worker) ~sender:senders.(worker) ~exchange
        ~as_name item.Mix.doc
    with
    | Ok _ -> Soak.Accepted
    | Error (Enforcement.Service_fault _) -> Soak.Fault
    | Error _ -> Soak.Refused
    | exception Client.Net_error m ->
      if contains ~needle:"overloaded" m then Soak.Overloaded
      else Soak.Transport_error
  in
  let config =
    Soak.config ~window_s ~services:(List.map (fun (n, _, _) -> n) services)
      schedule
  in
  say quiet
    "soak: %d phase(s) over %.0fs, %d worker(s) peak, seed %d, k=%d, window \
     %.1fs"
    (List.length schedule.Schedule.phases)
    (Schedule.total_s schedule) n_workers seed k window_s;
  let report =
    Soak.run ~on_window:(print_window quiet) ~env ~config ~resilience
      ~schema:s0 ~send ()
  in
  print_verdict quiet report;
  Option.iter
    (fun path ->
      Axml_obs.Json.to_file path (Soak.report_to_json report);
      say quiet "wrote %s" path)
    out;
  if report.Soak.verdict.Soak.pass then 0 else 1
