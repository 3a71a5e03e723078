(* Phase schedules: the timeline of load, faults and agreement churn a
   soak run plays against a served peer. *)

type fault =
  | Healthy
  | Flaky of int
  | Slow of float
  | Dead

type phase = {
  name : string;
  duration_s : float;
  workers : int;
  think_s : float;
  mix : Mix.t;
  fault : fault;
  exchange : [ `Primary | `Churned ];
  expect_degraded : bool;
}

let phase ?(workers = 1) ?(think_s = 0.) ?(fault = Healthy)
    ?(exchange = `Primary) ?(expect_degraded = false) ~duration_s ~mix name =
  if duration_s <= 0. then
    invalid_arg "Schedule.phase: duration_s must be positive";
  if workers < 1 then invalid_arg "Schedule.phase: workers must be >= 1";
  { name; duration_s; workers; think_s; mix; fault; exchange; expect_degraded }

type t = { seed : int; phases : phase list }

let v ?(seed = 2003) phases =
  if phases = [] then
    invalid_arg "Schedule.v: a schedule needs at least one phase";
  { seed; phases }

let total_s t = List.fold_left (fun acc p -> acc +. p.duration_s) 0. t.phases
let max_workers t = List.fold_left (fun acc p -> max acc p.workers) 1 t.phases

let phase_at t elapsed =
  let rec go i start = function
    | [ p ] -> (i, p)
    | p :: rest ->
      if elapsed < start +. p.duration_s then (i, p)
      else go (i + 1) (start +. p.duration_s) rest
    | [] -> assert false
  in
  go 0 0. t.phases

let fault_timeline t =
  List.rev @@ fst
  @@ List.fold_left
       (fun (acc, start) p ->
         ((start, p.fault) :: acc, start +. p.duration_s))
       ([], 0.) t.phases

let default ?(seed = 2003) ?(workers = 2) ?(churn = true) ~total_s () =
  if total_s <= 0. then invalid_arg "Schedule.default: total_s must be > 0";
  let part f = f *. total_s in
  let flash_workers = max 8 (4 * workers) in
  let steady name ?(frac = 0.25) ?exchange () =
    phase ~workers ~think_s:0.002 ~duration_s:(part frac) ~mix:Mix.steady
      ?exchange name
  in
  let phases =
    [ phase ~workers ~think_s:0.002 ~duration_s:(part 0.10) ~mix:Mix.steady
        "warmup";
      (if churn then steady "steady" () else steady "steady" ~frac:0.35 ());
    ]
    @ (if churn then [ steady "churn" ~frac:0.10 ~exchange:`Churned () ]
       else [])
    @ [ phase ~workers:flash_workers ~think_s:0. ~duration_s:(part 0.20)
          ~mix:Mix.flash_crowd ~expect_degraded:true "flash";
        phase ~workers ~think_s:0.002 ~duration_s:(part 0.10) ~mix:Mix.steady
          ~fault:(Slow 0.05) ~expect_degraded:true "brownout-slow";
        phase ~workers ~think_s:0.002 ~duration_s:(part 0.10) ~mix:Mix.steady
          ~fault:Dead ~expect_degraded:true "brownout-dead";
        (* the breaker's cooldown bleeds into recovery: its first seconds
           still short-circuit, so excursions here are expected — the
           verdict's recovery-p99 and breakers-recovered checks grade the
           ramp instead of the error budget *)
        phase ~workers ~think_s:0.002 ~duration_s:(part 0.15) ~mix:Mix.steady
          ~expect_degraded:true "recovery";
      ]
  in
  v ~seed phases
