(* The machine's speed, and timings scaled to a reference speed.

   The development machine is a 2-vCPU VM on a shared host. Its speed
   at allocation-heavy code swings between full speed and about 60% of
   it, in stretches of seconds to minutes, while the guest sees no
   steal time. A loop over a small array barely notices; a loop that
   allocates strings, lists and hash tables slows down as the workloads
   do. [probe] times such a loop, [kernel]. The kernel calls nothing of
   the program, so no change to the program moves it. A timing
   multiplied by [scale] of the probes taken around it reads as it would
   on a machine where one probe takes [reference_ns].

   During a measured phase, lane 0 takes a probe whenever [every_ns]
   have passed since the last one ended ([tick]). The probes cut the
   phase into stretches; each stretch is scaled by the mean scale of
   the two probes around it. *)

let now_ns = Recorder.now_ns

let sink = ref 0

(* A fixed amount of allocation-heavy work: strings, a list, a hash
   table, a buffer and a sorted array, about 5.9k minor-heap words. *)
let kernel () =
  let tbl = Hashtbl.create 64 in
  let l = List.init 300 (fun i -> string_of_int (i * 7919)) in
  List.iter (fun s -> Hashtbl.replace tbl s (String.length s)) l;
  let b = Buffer.create 256 in
  List.iter (fun s -> Buffer.add_string b s; Buffer.add_char b ',') l;
  let a = Array.of_list (List.rev_map Hashtbl.hash l) in
  Array.sort compare a;
  sink := !sink + a.(0) + Buffer.length b + Hashtbl.length tbl

let rounds = 3   (* kernel calls per timed repetition *)
let reps = 4

(* The shortest of [reps] timed repetitions, in ns: a minor collection
   or an interrupt lands in one of them at most. *)
let probe () =
  let best = ref max_int in
  for _ = 1 to reps do
    let t0 = now_ns () in
    for _ = 1 to rounds do kernel () done;
    best := min !best (now_ns () - t0)
  done;
  !best

(* One probe on the development VM at full speed. *)
let reference_ns = 300_000.

let scale probe_ns = reference_ns /. float_of_int probe_ns

(* A time of [ns] taken right before a probe of [probe_ns]. *)
let scaled ns probe_ns = float_of_int ns *. scale probe_ns

(* ------------------------------------------------------------------ *)
(* Probes during a measured phase                                      *)
(* ------------------------------------------------------------------ *)

let every_ns = 25_000_000

(* Probe [i] ran from [start.(i)] to [stop.(i)], in ns after the phase
   began; probe 0 ran just before it, at 0. *)
type log = {
  t_start : int;
  mutable start : int array;
  mutable stop : int array;
  mutable probe_ns : int array;
  mutable n : int;
  mutable words : float;   (* minor-heap words the probes in the phase allocated *)
}

let record log ~start ~stop p =
  if log.n = Array.length log.start then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    log.start <- grow log.start;
    log.stop <- grow log.stop;
    log.probe_ns <- grow log.probe_ns
  end;
  log.start.(log.n) <- start;
  log.stop.(log.n) <- stop;
  log.probe_ns.(log.n) <- p;
  log.n <- log.n + 1

(* Take probe 0 and start the phase. *)
let begin_phase ~expected_s =
  let p = probe () in
  let capacity = 16 + int_of_float (expected_s *. 4e9 /. float_of_int every_ns) in
  let log =
    { t_start = now_ns (); start = Array.make capacity 0; stop = Array.make capacity 0;
      probe_ns = Array.make capacity 0; n = 0; words = 0. }
  in
  record log ~start:0 ~stop:0 p;
  log

let take log =
  let w0 = Gc.minor_words () in
  let start = now_ns () - log.t_start in
  let p = probe () in
  record log ~start ~stop:(now_ns () - log.t_start) p;
  log.words <- log.words +. (Gc.minor_words () -. w0)

(* Called by lane 0 after each document. *)
let tick log =
  if now_ns () - log.t_start - log.stop.(log.n - 1) >= every_ns then take log

(* The phase's last probe, after every lane is done. *)
let end_phase log = take log

(* Mean scale of the two probes around stretch [i] (from probe i-1 to
   probe i). *)
let stretch_scale log i =
  (scale log.probe_ns.(i - 1) +. scale log.probe_ns.(i)) /. 2.

(* The phase's scaled length, probes left out, in ns. *)
let busy_ns log =
  let t = ref 0. in
  for i = 1 to log.n - 1 do
    t := !t +. (float_of_int (log.start.(i) - log.stop.(i - 1)) *. stretch_scale log i)
  done;
  !t

(* The scale of the stretch in which a document that ran from [t0] to
   [t1] ended, or None if it overlapped a probe. *)
let locate log ~t0 ~t1 =
  let lo = ref 1 and hi = ref (log.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if log.start.(mid) >= t1 then hi := mid else lo := mid + 1
  done;
  let i = !lo in
  if t0 < log.stop.(i - 1) || t1 > log.start.(i) then None else Some (stretch_scale log i)

(* Median scale of the phase's probes. *)
let median_scale log =
  let a = Array.init log.n (fun i -> scale log.probe_ns.(i)) in
  Array.sort compare a;
  a.(log.n / 2)
