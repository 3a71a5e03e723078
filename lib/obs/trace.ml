(* Span-based decision tracing: structured events into a bounded ring.
   The Null sink must cost (nearly) nothing: every emission first
   checks [enabled], and hot call sites guard event construction
   themselves. *)

type verdict = Accept | Reject | Fault

type kind =
  | Span_open of { name : string; detail : string }
  | Span_close of { name : string; elapsed_s : float }
  | Cache_query of { cache : string; hit : bool }
  | Fork_choice of { fname : string; choice : string }
  | Attempt of { fname : string; number : int }
  | Retry of { fname : string; attempt : int; backoff_s : float }
  | Breaker of { fname : string; transition : string }
  | Invocation of { fname : string; attempts : int; ok : bool }
  | Decision of { subject : string; verdict : verdict; detail : string }
  | Note of string

type event = { seq : int; time_s : float; depth : int; kind : kind }

(* ---------- ring buffer ---------- *)

(* Parallel arrays, not an [event array]: pushing then costs four
   stores and zero allocation (the common kinds — cache queries, fork
   choices with interned names — are static blocks), where a slot of
   boxed [event]s would allocate a record per push and pay its
   promotion when the ring outlives a minor collection. [event]
   records are only rebuilt on the cold read path. *)
type buffer = {
  seqs : int array;
  times : float array;  (* flat float array: unboxed, no write barrier *)
  depths : int array;
  kinds : kind array;
  mutable next : int;  (* next slot to overwrite *)
  mutable pushed : int;
}

let buffer ?(capacity = 4096) () =
  let cap = max 1 capacity in
  { seqs = Array.make cap 0;
    times = Array.make cap 0.;
    depths = Array.make cap 0;
    kinds = Array.make cap (Note "");
    next = 0;
    pushed = 0 }

let buffer_capacity b = Array.length b.kinds
let buffer_pushed b = b.pushed

let buffer_push b ~seq ~time_s ~depth kind =
  let i = b.next in
  b.seqs.(i) <- seq;
  b.times.(i) <- time_s;
  b.depths.(i) <- depth;
  b.kinds.(i) <- kind;
  let n = i + 1 in
  b.next <- (if n = Array.length b.kinds then 0 else n);
  b.pushed <- b.pushed + 1

let buffer_events b =
  let cap = Array.length b.kinds in
  let n = min b.pushed cap in
  let first = if b.pushed <= cap then 0 else b.next in
  List.init n (fun i ->
      let j = (first + i) mod cap in
      { seq = b.seqs.(j);
        time_s = b.times.(j);
        depth = b.depths.(j);
        kind = b.kinds.(j) })

let buffer_clear b =
  Array.fill b.kinds 0 (Array.length b.kinds) (Note "");
  b.next <- 0;
  b.pushed <- 0

(* ---------- rendering ---------- *)

let pp_verdict ppf = function
  | Accept -> Format.pp_print_string ppf "ACCEPT"
  | Reject -> Format.pp_print_string ppf "REJECT"
  | Fault -> Format.pp_print_string ppf "FAULT"

let pp_kind ppf = function
  | Span_open { name; detail } ->
      Format.fprintf ppf "> %s%s" name (if detail = "" then "" else " " ^ detail)
  | Span_close { name; elapsed_s } ->
      Format.fprintf ppf "< %s (%.1f us)" name (elapsed_s *. 1e6)
  | Cache_query { cache; hit } ->
      Format.fprintf ppf "cache %s: %s" cache (if hit then "hit" else "miss")
  | Fork_choice { fname; choice } ->
      Format.fprintf ppf "fork %s: %s" fname choice
  | Attempt { fname; number } ->
      Format.fprintf ppf "attempt #%d %s" number fname
  | Retry { fname; attempt; backoff_s } ->
      Format.fprintf ppf "retry %s after attempt #%d (backoff %.0f ms)" fname
        attempt (backoff_s *. 1e3)
  | Breaker { fname; transition } ->
      Format.fprintf ppf "breaker %s: %s" fname transition
  | Invocation { fname; attempts; ok } ->
      Format.fprintf ppf "invoke %s: %s%s" fname (if ok then "ok" else "failed")
        (if attempts = 0 then ""
         else Format.sprintf " (%d attempt%s)" attempts (if attempts = 1 then "" else "s"))
  | Decision { subject; verdict; detail } ->
      Format.fprintf ppf "decision %s: %a%s" subject pp_verdict verdict
        (if detail = "" then "" else " — " ^ detail)
  | Note s -> Format.fprintf ppf "note: %s" s

let kind_fields kind =
  let str s = Json.String s in
  let event name fields = ("event", str name) :: fields in
  match kind with
  | Span_open { name; detail } ->
    event "span_open" [ ("name", str name); ("detail", str detail) ]
  | Span_close { name; elapsed_s } ->
    event "span_close" [ ("name", str name); ("elapsed_s", Json.Float elapsed_s) ]
  | Cache_query { cache; hit } ->
    event "cache_query" [ ("cache", str cache); ("hit", Json.Bool hit) ]
  | Fork_choice { fname; choice } ->
    event "fork_choice" [ ("fname", str fname); ("choice", str choice) ]
  | Attempt { fname; number } ->
    event "attempt" [ ("fname", str fname); ("number", Json.Int number) ]
  | Retry { fname; attempt; backoff_s } ->
    event "retry"
      [ ("fname", str fname); ("attempt", Json.Int attempt);
        ("backoff_s", Json.Float backoff_s) ]
  | Breaker { fname; transition } ->
    event "breaker" [ ("fname", str fname); ("transition", str transition) ]
  | Invocation { fname; attempts; ok } ->
    event "invocation"
      [ ("fname", str fname); ("attempts", Json.Int attempts); ("ok", Json.Bool ok) ]
  | Decision { subject; verdict; detail } ->
    let v = match verdict with Accept -> "accept" | Reject -> "reject" | Fault -> "fault" in
    event "decision" [ ("subject", str subject); ("verdict", str v); ("detail", str detail) ]
  | Note s -> event "note" [ ("text", str s) ]

let event_to_json e =
  Json.Obj
    (("seq", Json.Int e.seq) :: ("t", Json.Float e.time_s) :: ("depth", Json.Int e.depth)
    :: kind_fields e.kind)

(* ---------- tracers ---------- *)

type sink = Null | Memory of buffer

type t = {
  mutable sink : sink;
  mutable clock : unit -> float;
  mutable seq : int;
  mutable depth : int;
  mutable last_time : float;  (* cached clock reading, see [emit] *)
  mutable clock_mask : int;   (* re-read every (mask+1) events *)
}

let create ?(clock = Unix.gettimeofday) ?(sink = Null) () =
  { sink; clock; seq = 0; depth = 0; last_time = 0.; clock_mask = 31 }

let default = create ()
let set_sink t sink = t.sink <- sink
let sink t = t.sink

let set_clock t clock =
  t.clock <- clock;
  t.last_time <- 0.

let set_clock_every t n =
  let rec pow2 p = if p >= n || p lsl 1 <= 0 then p else pow2 (p lsl 1) in
  t.clock_mask <- pow2 1 - 1

let enabled t = match t.sink with Null -> false | Memory _ -> true

(* [Unix.gettimeofday] resolves ~1 us, so sub-microsecond event bursts
   (e.g. cache hits) are indistinguishable whether or not each gets its
   own reading; amortize the call instead. Span boundaries always
   re-read the clock ([with_span]), and the cache only moves forward,
   so timestamps stay monotone. *)
let next_seq tracer =
  let seq = tracer.seq in
  tracer.seq <- seq + 1;
  if seq land tracer.clock_mask = 0 then tracer.last_time <- tracer.clock ();
  seq

let emit ?(tracer = default) kind =
  match tracer.sink with
  | Null -> ()
  | Memory b ->
      let seq = next_seq tracer in
      buffer_push b ~seq ~time_s:tracer.last_time ~depth:tracer.depth kind

let with_span ?(tracer = default) ?detail name f =
  match tracer.sink with
  | Null -> f ()
  | Memory _ ->
      let detail = match detail with None -> "" | Some d -> d () in
      tracer.last_time <- tracer.clock ();
      emit ~tracer (Span_open { name; detail });
      let t0 = tracer.last_time in
      tracer.depth <- tracer.depth + 1;
      Fun.protect
        ~finally:(fun () ->
          tracer.depth <- tracer.depth - 1;
          tracer.last_time <- tracer.clock ();
          emit ~tracer (Span_close { name; elapsed_s = tracer.last_time -. t0 }))
        f
