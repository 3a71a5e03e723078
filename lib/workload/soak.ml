(* The soak harness: closed-loop worker threads replay a phase schedule
   against a caller-supplied send callback while a coordinator thread
   slices the run into metric windows and grades the result. *)

module Json = Axml_obs.Json
module Metrics = Axml_obs.Metrics
module Resilience = Axml_services.Resilience
module Schema = Axml_schema.Schema

type outcome = Accepted | Refused | Overloaded | Fault | Transport_error

let outcome_label = function
  | Accepted -> "accepted"
  | Refused -> "refused"
  | Overloaded -> "overloaded"
  | Fault -> "fault"
  | Transport_error -> "transport_error"

let all_outcomes = [ Accepted; Refused; Overloaded; Fault; Transport_error ]

type config = {
  schedule : Schedule.t;
  window_s : float;
  error_budget : float;
  flash_factor : float;
  recovery_factor : float;
  steady_phase : string;
  flash_phase : string;
  recovery_phase : string;
  services : string list;
}

let config ?(window_s = 1.0) ?(error_budget = 0.01) ?(flash_factor = 1.1)
    ?(recovery_factor = 10.0) ?(steady_phase = "steady")
    ?(flash_phase = "flash") ?(recovery_phase = "recovery") ?(services = [])
    schedule =
  if window_s <= 0. then invalid_arg "Soak.config: window_s must be positive";
  { schedule; window_s; error_budget; flash_factor; recovery_factor;
    steady_phase; flash_phase; recovery_phase; services }

type window = {
  w_index : int;
  w_start_s : float;
  w_end_s : float;
  w_phase : string;
  w_requests : int;
  w_p50 : float;
  w_p99 : float;
  w_p999 : float;
  w_rate : float;
  w_heap_words : int;
  w_trips : int;
  w_retries : int;
  w_short_circuited : int;
  w_breakers : (string * Resilience.breaker_state) list;
}

type phase_summary = {
  s_name : string;
  s_expect_degraded : bool;
  s_requests : int;
  s_outcomes : (string * int) list;
  s_p50 : float;
  s_p99 : float;
  s_p999 : float;
  s_error_rate : float;
}

type check = { check : string; ok : bool; detail : string }
type verdict = { pass : bool; checks : check list }

type report = {
  seed : int;
  total_s : float;
  windows : window list;
  phases : phase_summary list;
  resilience : Resilience.stats;
  heap_high_water_words : int;
  verdict : verdict;
}

(* Finer than Metrics.default_buckets: soak quantiles interpolate inside
   buckets, so resolution bounds the p99/p999 estimation error. *)
let soak_buckets =
  [ 0.00005; 0.0001; 0.00025; 0.0005; 0.001; 0.0025; 0.005; 0.01; 0.025;
    0.05; 0.1; 0.25; 0.5; 1.0; 2.0; 4.0 ]

let dedup_names phases =
  List.rev
  @@ List.fold_left
       (fun acc (p : Schedule.phase) ->
         if List.mem p.Schedule.name acc then acc else p.Schedule.name :: acc)
       [] phases

(* {2 Verdict} *)

let skip check why = { check; ok = true; detail = "skipped: " ^ why }

let fmt_ms v = Printf.sprintf "%.2fms" (v *. 1000.)

let grade (cfg : config) ~phases ~(resilience : Resilience.stats)
    ~final_breakers =
  let find name = List.find_opt (fun s -> s.s_name = name) phases in
  let p99_of name =
    match find name with
    | Some s when s.s_requests > 0 && not (Float.is_nan s.s_p99) ->
      Some s.s_p99
    | _ -> None
  in
  let steady = p99_of cfg.steady_phase in
  let baseline =
    match find cfg.steady_phase with
    | Some s when s.s_requests > 0 ->
      { check = "steady-baseline"; ok = true;
        detail =
          Printf.sprintf "%d requests, p99 %s" s.s_requests (fmt_ms s.s_p99) }
    | Some _ ->
      { check = "steady-baseline"; ok = false;
        detail = "steady phase recorded no requests" }
    | None -> skip "steady-baseline" "no steady phase in the schedule"
  in
  let ratio_check check name ~against ~ok_when =
    match (steady, p99_of name) with
    | _, None when find name = None ->
      skip check (Printf.sprintf "no %s phase in the schedule" name)
    | None, _ -> skip check "no steady baseline"
    | _, None ->
      { check; ok = false;
        detail = Printf.sprintf "%s phase recorded no latency data" name }
    | Some st, Some p ->
      { check; ok = ok_when ~phase:p ~limit:(against *. st);
        detail =
          Printf.sprintf "%s p99 %s vs steady %s (factor %.2f, budget %.2f)"
            name (fmt_ms p) (fmt_ms st) (p /. st) against }
  in
  let flash =
    ratio_check "flash-p99-moved" cfg.flash_phase ~against:cfg.flash_factor
      ~ok_when:(fun ~phase ~limit -> phase >= limit)
  in
  let recovery =
    ratio_check "recovery-p99" cfg.recovery_phase ~against:cfg.recovery_factor
      ~ok_when:(fun ~phase ~limit -> phase <= limit)
  in
  let has_faults =
    List.exists
      (fun (p : Schedule.phase) ->
        match p.Schedule.fault with
        | Schedule.Dead | Schedule.Flaky _ -> true
        | Schedule.Healthy | Schedule.Slow _ -> false)
      cfg.schedule.Schedule.phases
  in
  let tripped =
    if not has_faults then skip "breaker-tripped" "no fault phase scheduled"
    else
      { check = "breaker-tripped"; ok = resilience.Resilience.trips > 0;
        detail =
          Printf.sprintf "%d trips, %d short-circuited calls"
            resilience.Resilience.trips resilience.Resilience.short_circuited }
  in
  let recovered =
    match final_breakers with
    | [] -> skip "breakers-recovered" "no services polled"
    | bs ->
      let open_ones = List.filter (fun (_, st) -> st = `Open) bs in
      { check = "breakers-recovered"; ok = open_ones = [];
        detail =
          (if open_ones = [] then "all breakers closed or half-open"
           else
             "still open: " ^ String.concat ", " (List.map fst open_ones)) }
  in
  let budget =
    let healthy =
      List.filter (fun s -> not s.s_expect_degraded && s.s_requests > 0) phases
    in
    match healthy with
    | [] -> skip "error-budget" "no healthy phase recorded requests"
    | _ ->
      let worst =
        List.fold_left
          (fun acc s -> if s.s_error_rate > acc.s_error_rate then s else acc)
          (List.hd healthy) healthy
      in
      { check = "error-budget"; ok = worst.s_error_rate <= cfg.error_budget;
        detail =
          Printf.sprintf "worst healthy phase %s: error rate %.4f (budget %.4f)"
            worst.s_name worst.s_error_rate cfg.error_budget }
  in
  let checks = [ baseline; flash; tripped; recovered; budget; recovery ] in
  { pass = List.for_all (fun c -> c.ok) checks; checks }

(* {2 JSON} *)

let breaker_label = function
  | `Closed -> "closed"
  | `Open -> "open"
  | `Half_open -> "half_open"

let report_to_json r =
  let open Json in
  let phase p =
    Obj
      [ ("name", String p.s_name);
        ("expect_degraded", Bool p.s_expect_degraded);
        ("requests", Int p.s_requests);
        ("error_rate", Float p.s_error_rate);
        ("p50", Float p.s_p50);
        ("p99", Float p.s_p99);
        ("p999", Float p.s_p999);
        ("outcomes", Obj (List.map (fun (o, n) -> (o, Int n)) p.s_outcomes)) ]
  in
  let window w =
    Obj
      [ ("index", Int w.w_index);
        ("start_s", Float w.w_start_s);
        ("end_s", Float w.w_end_s);
        ("phase", String w.w_phase);
        ("requests", Int w.w_requests);
        ("rate", Float w.w_rate);
        ("p50", Float w.w_p50);
        ("p99", Float w.w_p99);
        ("p999", Float w.w_p999);
        ("heap_words", Int w.w_heap_words);
        ("trips", Int w.w_trips);
        ("retries", Int w.w_retries);
        ("short_circuited", Int w.w_short_circuited);
        ( "breakers",
          Obj (List.map (fun (name, st) -> (name, String (breaker_label st))) w.w_breakers) ) ]
  in
  Obj
    [ ("schema_version", Int 1);
      ("seed", Int r.seed);
      ("total_s", Float r.total_s);
      ("heap_high_water_words", Int r.heap_high_water_words);
      ("resilience", Resilience.stats_to_json r.resilience);
      ( "verdict",
        Obj
          [ ("pass", Bool r.verdict.pass);
            ( "checks",
              List
                (List.map
                   (fun c ->
                     Obj [ ("check", String c.check); ("ok", Bool c.ok); ("detail", String c.detail) ])
                   r.verdict.checks) ) ] );
      ("phases", List (List.map phase r.phases));
      ("windows", List (List.map window r.windows)) ]

(* {2 Running} *)

let quantiles snap =
  ( Metrics.snapshot_quantile snap 0.5,
    Metrics.snapshot_quantile snap 0.99,
    Metrics.snapshot_quantile snap 0.999 )

let run ?(registry = Metrics.default) ?on_window ?env ~config:cfg ~resilience
    ~schema ~send () =
  let schedule = cfg.schedule in
  let phases = Array.of_list schedule.Schedule.phases in
  let streams =
    Array.mapi
      (fun i (p : Schedule.phase) ->
        Mix.stream
          ~seed:(schedule.Schedule.seed + (1000 * (i + 1)))
          ?env ~schema p.Schedule.mix)
      phases
  in
  let hist_all =
    Metrics.histogram ~registry ~buckets:soak_buckets
      ~help:"Soak request latency (all phases)" "axml_soak_latency_seconds"
  in
  let phase_hist =
    let tbl = Hashtbl.create 8 in
    Array.iter
      (fun (p : Schedule.phase) ->
        if not (Hashtbl.mem tbl p.Schedule.name) then
          Hashtbl.add tbl p.Schedule.name
            (Metrics.histogram ~registry ~buckets:soak_buckets
               ~labels:[ ("phase", p.Schedule.name) ]
               ~help:"Soak request latency per phase"
               "axml_soak_phase_latency_seconds"))
      phases;
    Hashtbl.find tbl
  in
  let req_counter =
    let tbl = Hashtbl.create 32 in
    Array.iter
      (fun (p : Schedule.phase) ->
        List.iter
          (fun o ->
            let key = (p.Schedule.name, o) in
            if not (Hashtbl.mem tbl key) then
              Hashtbl.add tbl key
                (Metrics.counter ~registry
                   ~labels:
                     [ ("phase", p.Schedule.name);
                       ("outcome", outcome_label o) ]
                   ~help:"Soak requests by phase and outcome"
                   "axml_soak_requests_total"))
          all_outcomes)
      phases;
    fun name o -> Hashtbl.find tbl (name, o)
  in
  let workers_gauge =
    Metrics.gauge ~registry ~help:"Scheduled worker concurrency"
      "axml_soak_workers"
  in
  let heap_gauge =
    Metrics.gauge ~registry ~help:"Live heap words at the last window edge"
      "axml_soak_heap_words"
  in
  (* Baselines, in case the registry already carries soak families. *)
  let base_phase =
    List.map
      (fun name -> (name, Metrics.histogram_snapshot (phase_hist name)))
      (dedup_names schedule.Schedule.phases)
  in
  let base_count =
    List.concat_map
      (fun name ->
        List.map
          (fun o -> ((name, o), Metrics.counter_value (req_counter name o)))
          all_outcomes)
      (dedup_names schedule.Schedule.phases)
  in
  let stats0 = Resilience.total resilience in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. Schedule.total_s schedule in
  let failure = Atomic.make None in
  let worker wid =
    try
      while Unix.gettimeofday () < deadline && Atomic.get failure = None do
        let idx, phase = Schedule.phase_at schedule (Unix.gettimeofday () -. t0) in
        if wid >= phase.Schedule.workers then Unix.sleepf 0.005
        else begin
          let item = Mix.next streams.(idx) in
          let st = Unix.gettimeofday () in
          let outcome = send ~worker:wid ~phase item in
          let dt = Unix.gettimeofday () -. st in
          Metrics.observe hist_all dt;
          Metrics.observe (phase_hist phase.Schedule.name) dt;
          Metrics.inc (req_counter phase.Schedule.name outcome);
          if phase.Schedule.think_s > 0. then Unix.sleepf phase.Schedule.think_s
        end
      done
    with exn -> ignore (Atomic.compare_and_set failure None (Some exn))
  in
  let threads =
    List.init (Schedule.max_workers schedule) (fun wid ->
        Thread.create worker wid)
  in
  let high_water = ref 0 in
  let poll_breakers () =
    List.map (fun s -> (s, Resilience.breaker_state resilience s)) cfg.services
  in
  let rec window_loop i prev_hist prev_stats acc =
    let edge = min deadline (t0 +. (float_of_int (i + 1) *. cfg.window_s)) in
    let now = Unix.gettimeofday () in
    if now < edge then Unix.sleepf (edge -. now);
    let now = Unix.gettimeofday () in
    let hist = Metrics.histogram_snapshot hist_all in
    let stats = Resilience.total resilience in
    let win_hist = Metrics.diff_histogram_snapshot ~before:prev_hist hist in
    let win_stats = Resilience.diff_stats ~before:prev_stats stats in
    let w_start_s = float_of_int i *. cfg.window_s in
    let w_end_s = now -. t0 in
    let _, phase = Schedule.phase_at schedule ((w_start_s +. w_end_s) /. 2.) in
    Metrics.set workers_gauge (float_of_int phase.Schedule.workers);
    let heap = (Gc.quick_stat ()).Gc.heap_words in
    if heap > !high_water then high_water := heap;
    Metrics.set heap_gauge (float_of_int heap);
    let p50, p99, p999 = quantiles win_hist in
    let span = w_end_s -. w_start_s in
    let w =
      { w_index = i;
        w_start_s;
        w_end_s;
        w_phase = phase.Schedule.name;
        w_requests = win_hist.Metrics.count;
        w_p50 = p50;
        w_p99 = p99;
        w_p999 = p999;
        w_rate =
          (if span > 0. then float_of_int win_hist.Metrics.count /. span
           else 0.);
        w_heap_words = heap;
        w_trips = win_stats.Resilience.trips;
        w_retries = win_stats.Resilience.retries;
        w_short_circuited = win_stats.Resilience.short_circuited;
        w_breakers = poll_breakers () }
    in
    Option.iter (fun f -> f w) on_window;
    let acc = w :: acc in
    if now >= deadline || Atomic.get failure <> None then List.rev acc
    else window_loop (i + 1) hist stats acc
  in
  let windows =
    window_loop 0 (Metrics.histogram_snapshot hist_all) stats0 []
  in
  List.iter Thread.join threads;
  (match Atomic.get failure with Some exn -> raise exn | None -> ());
  let total_s = Unix.gettimeofday () -. t0 in
  let summaries =
    List.map
      (fun name ->
        let base = List.assoc name base_phase in
        let snap =
          Metrics.diff_histogram_snapshot ~before:base
            (Metrics.histogram_snapshot (phase_hist name))
        in
        let outcomes =
          List.map
            (fun o ->
              let v =
                Metrics.counter_value (req_counter name o)
                - List.assoc (name, o) base_count
              in
              (outcome_label o, v))
            all_outcomes
        in
        let requests = List.fold_left (fun acc (_, n) -> acc + n) 0 outcomes in
        let errors = requests - List.assoc (outcome_label Accepted) outcomes in
        let p50, p99, p999 = quantiles snap in
        { s_name = name;
          s_expect_degraded =
            List.exists
              (fun (p : Schedule.phase) ->
                p.Schedule.name = name && p.Schedule.expect_degraded)
              schedule.Schedule.phases;
          s_requests = requests;
          s_outcomes = outcomes;
          s_p50 = p50;
          s_p99 = p99;
          s_p999 = p999;
          s_error_rate =
            (if requests = 0 then 0.
             else float_of_int errors /. float_of_int requests) })
      (dedup_names schedule.Schedule.phases)
  in
  let resilience_delta =
    Resilience.diff_stats ~before:stats0 (Resilience.total resilience)
  in
  let verdict =
    grade cfg ~phases:summaries ~resilience:resilience_delta
      ~final_breakers:(poll_breakers ())
  in
  { seed = schedule.Schedule.seed;
    total_s;
    windows;
    phases = summaries;
    resilience = resilience_delta;
    heap_high_water_words = !high_water;
    verdict }
