(* The exchange ledger: end-to-end and per-layer cost of moving
   intensional documents from XML bytes to a verdict, in-process and
   over loopback (see README.md in this directory).

   Four seeded workloads drive the public API of the layers on a peer's
   communication path (Xml_parser, Syntax, Xml_print,
   Enforcement.Pipeline over Contract/Rewriter/Execute, Validate, Peer,
   Wire, Client/Server). Each workload runs a fixed number of documents
   closed-loop; its first outputs are compared byte for byte with a
   sequential in-process reference, and the reference outputs are
   validated against the exchange schema. The end-to-end timings are
   scaled by the machine's speed, probed between stretches of the
   measured phase (speed.ml). With --trace 1 a traced run
   follows, in which blocks of untraced documents alternate with blocks
   whose top-level call is broken into the public calls it makes,
   recorded as spans; the layers the spans do not cover are timed in
   isolation on the workload's own documents.

   Run from the repository root:
     dune exec ./bench/ledger/ledger.exe -- [--workload W] [--seed N]
         [--seconds S] [--trace 0|1] [--smoke] [--spans FILE] [-o FILE]
     dune exec ./bench/ledger/ledger.exe -- --smoke --baseline bench/ledger/baseline.json
     dune exec ./bench/ledger/ledger.exe -- --aggregate -o baseline.json RUN.json...

   The last line of standard output is one JSON object: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1. A
   correctness failure prints no metrics and exits 1. *)

module Schema = Axml_schema.Schema
module Schema_parser = Axml_schema.Schema_parser
module D = Axml_core.Document
module Contract = Axml_core.Contract
module Rewriter = Axml_core.Rewriter
module Validate = Axml_core.Validate
module Xml_parser = Axml_xml.Xml_parser
module Xml_print = Axml_xml.Xml_print
module Registry = Axml_services.Registry
module Service = Axml_services.Service
module Oracle = Axml_services.Oracle
module Syntax = Axml_peer.Syntax
module Enforcement = Axml_peer.Enforcement
module Pipeline = Enforcement.Pipeline
module Peer = Axml_peer.Peer
module Xml_schema_int = Axml_peer.Xml_schema_int
module Wire = Axml_net.Wire
module Client = Axml_net.Client
module Server = Axml_net.Server
module Endpoint = Axml_net.Endpoint
module Mix = Axml_workload.Mix

let now_ns = Recorder.now_ns

exception Incorrect of string

let incorrect fmt = Fmt.kstr (fun m -> raise (Incorrect m)) fmt

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type path =
  | Batch     (* parse -> of_xml -> enforce -> print, the `axml batch` loop *)
  | Exchange  (* Peer.send to an in-process receiver *)
  | Served    (* Client.send to a peer served by another process *)

type workload = {
  name : string;
  path : path;
  sender : string;        (* .axs paths, relative to the repository root *)
  exchange : string;
  mix : Mix.t;
  lanes : int;            (* closed-loop clients, one thread each *)
  docs_per_s : int;
    (* documents measured per second of --seconds: sized so that a run
       lasts about that long on a 2-core machine *)
  min_distinct_words : int;
    (* the pool must hold more distinct root children words than this *)
}

let newspaper =
  ("examples/schemas/newspaper_sender.axs", "examples/schemas/newspaper_exchange.axs")

let feed = ("bench/ledger/feed_sender.axs", "bench/ledger/feed_exchange.axs")

(* Enough fuel to unroll all 8 starred groups of the feed model. *)
let feed_mix = Mix.v [ Mix.profile ~fuel:16 "feed" ]

let workload ~name ~path ~schemas:(sender, exchange) ~mix ?(lanes = 1)
    ?(min_distinct_words = 0) docs_per_s =
  { name; path; sender; exchange; mix; lanes; docs_per_s; min_distinct_words }

(* Why each workload exists is in README.md. batch-diverse must defeat
   the contract's analysis cache, so its pool is asserted to hold more
   distinct root words than the cache's default capacity (4096). *)
let workloads =
  [ workload ~name:"batch-newspaper" ~path:Batch ~schemas:newspaper
      ~mix:Mix.steady 80_000;
    workload ~name:"batch-diverse" ~path:Batch ~schemas:feed ~mix:feed_mix
      ~min_distinct_words:4096 10_000;
    workload ~name:"exchange-inproc" ~path:Exchange ~schemas:newspaper
      ~mix:Mix.steady 80_000;
    workload ~name:"served-loopback" ~path:Served ~schemas:newspaper
      ~mix:Mix.steady ~lanes:2 60_000 ]

(* The rewriting depth every sender and receiver enforces at. *)
let k = 2

type settings = {
  seed : int;
  seconds : int;
  smoke : bool;
  trace : bool;
  pool : int;       (* generated documents, cycled *)
  warmup : int;     (* documents run by each set-up, before measuring *)
  check : int;      (* measured documents compared with the reference *)
  setups : int;     (* set-ups per run; setup_s is their median *)
}

let settings ~seed ~seconds ~smoke ~trace =
  { seed; seconds; smoke; trace; pool = 20_000; warmup = 1_000;
    check = (if smoke then 2_000 else 10_000);
    setups = (if smoke then 2 else 7) }

(* Documents measured per lane: a multiple of the lane count, at least
   the compared prefix. *)
let measured_per_lane st w =
  let total =
    if st.smoke then w.docs_per_s * 2 / 5 else w.docs_per_s * st.seconds
  in
  max (st.check / w.lanes) (total / w.lanes)

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

type schemas = { s0 : Schema.t; exchange : Schema.t; env : Schema.env }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let load_schemas (w : workload) =
  let s0 = Schema_parser.parse (read_file w.sender) in
  let exchange = Schema_parser.parse (read_file w.exchange) in
  { s0; exchange; env = Schema.env_of_schemas s0 exchange }

type pool = {
  size : int;
  docs : D.t array;    (* batch workloads keep only a sample after the reference *)
  xml : string array;
}

(* Generated from the seed alone; the program sees only these
   documents. *)
let make_pool st w =
  let sc = load_schemas w in
  let stream = Mix.stream ~seed:st.seed ~env:sc.env ~schema:sc.s0 w.mix in
  let docs = Array.init st.pool (fun _ -> (Mix.next stream).Mix.doc) in
  if w.min_distinct_words > 0 then begin
    let words = Hashtbl.create 4096 in
    Array.iter (fun d -> Hashtbl.replace words (D.word (D.children d)) ()) docs;
    if Hashtbl.length words <= w.min_distinct_words then
      incorrect "%s: the pool holds %d distinct root words, not more than %d"
        w.name (Hashtbl.length words) w.min_distinct_words
  end;
  { size = st.pool; docs; xml = Array.map (Syntax.to_xml_string ~pretty:false) docs }

(* Lane [j] of [lanes] takes documents j, j + lanes, j + 2 lanes, ...
   of the cycled pool, so each lane's slice is fixed and disjoint. *)
let doc_index pool ~lanes ~lane n = (lane + (n * lanes)) mod pool.size

let names = Array.init 256 (Printf.sprintf "doc-%03d")
let as_name n = names.(n land 255)

(* ------------------------------------------------------------------ *)
(* Services                                                            *)
(* ------------------------------------------------------------------ *)

(* While a recorder is installed, every service call is a span. *)
type probe = { mutable recorder : Recorder.t option }

(* Seeded honest services, one stream per (lane, function): a lane and
   its reference see the same replies in the same order. *)
let services st sc ~lane probe =
  List.mapi
    (fun i fname ->
      let f = Option.get (Schema.find_function sc.s0 fname) in
      let honest =
        Oracle.honest_random
          ~seed:(st.seed + (7919 * (lane + 1)) + i)
          ~env:sc.env sc.s0 fname
      in
      let behaviour params =
        match probe.recorder with
        | None -> honest params
        | Some r -> Recorder.span r Recorder.Service (fun () -> honest params)
      in
      Service.make ~input:f.Schema.f_input ~output:f.Schema.f_output fname
        behaviour)
    (Schema.function_names sc.s0)

let enforcement_config = { Enforcement.default_config with Enforcement.k }

(* ------------------------------------------------------------------ *)
(* CPUs                                                                *)
(* ------------------------------------------------------------------ *)

(* The calling thread's CPUs, and a request to run only on some of them
   (affinity.c); threads and processes started later inherit it. *)
external get_affinity : unit -> int array = "ledger_get_affinity"
external set_affinity : int array -> bool = "ledger_set_affinity"

(* The benchmark runs on the first CPU it may use, and the served peer
   it starts inherits that CPU, so the speed probes (speed.ml) measure
   the one CPU that does all the work. On a 2-vCPU VM, with the served
   peer on the second CPU, that CPU slowed down unseen by the probes,
   and served-loopback's 99th percentile ranged from 170 to 660 us over
   six runs; on one CPU, from 261 to 297 us. Left to the scheduler, the
   two processes moved between the CPUs, and runs of one seed ranged
   from 48k to 70k documents per second. *)
let pin_first_cpu () =
  let cpus = get_affinity () in
  if Array.length cpus >= 2 then ignore (set_affinity [| cpus.(0) |])

(* ------------------------------------------------------------------ *)
(* The served peer: this executable in --serve mode                    *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; control : Unix.file_descr; port : int }

(* Serve [schema_path] until standard input closes, so the server also
   ends if the process that started it dies. *)
let serve_child ~schema_path =
  let schema = Schema_parser.parse (read_file schema_path) in
  let peer = Peer.create ~name:"ledger-receiver" ~schema () in
  Peer.configure peer { Peer.default_config with Peer.k };
  let server = Server.start (Endpoint.create peer) in
  Printf.printf "port %d\n%!" (Server.port server);
  (try
     while true do ignore (input_line stdin) done
   with End_of_file -> ());
  Server.stop server

let spawn_server ~schema_path =
  let control_r, control = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--serve"; schema_path |]
      control_r out_w Unix.stderr
  in
  Unix.close control_r;
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let line = try Some (input_line ic) with End_of_file -> None in
  close_in ic;
  match Option.bind line (fun l -> Scanf.sscanf_opt l "port %d" Fun.id) with
  | Some port -> { pid; control; port }
  | None ->
    Unix.close control;
    ignore (Unix.waitpid [] pid);
    incorrect "the served peer did not announce its port"

let stop_server s =
  Unix.close s.control;
  ignore (Unix.waitpid [] s.pid)

type server_counters = { request_s : float; requests : float; overloads : float }

(* The server's own request histogram and admission counter, read from
   GET /metrics. *)
let server_counters port =
  let status, body = Client.http ~port ~meth:"GET" ~path:"/metrics" () in
  if status <> 200 then incorrect "GET /metrics answered %d" status;
  let lines = String.split_on_char '\n' body in
  let value name =
    let prefix = name ^ " " in
    match List.find_opt (String.starts_with ~prefix) lines with
    | None -> incorrect "GET /metrics has no %s" name
    | Some l ->
      float_of_string
        (String.sub l (String.length prefix) (String.length l - String.length prefix))
  in
  { request_s = value "axml_net_request_seconds_sum";
    requests = value "axml_net_request_seconds_count";
    overloads = value "axml_net_overload_total" }

let open_agreement client sc =
  let schema_xml = Xml_schema_int.to_string sc.exchange in
  match Client.rpc client (Wire.Open_exchange { schema_xml; k }) with
  | Wire.Exchange_opened { id; _ } -> id
  | r -> incorrect "open-exchange answered %a" Wire.pp_response r

(* ------------------------------------------------------------------ *)
(* Lanes                                                               *)
(* ------------------------------------------------------------------ *)

type outcome =
  | Out_xml of string   (* the enforced document, printed *)
  | Out_doc of D.t      (* the enforced document, as sent *)
  | Refused of string   (* a verdict: the document was refused *)
  | Failed of string    (* an exception, transport error or overload *)

type lane = {
  step : int -> outcome;
    (* the workload's top-level call on the lane's n-th document *)
  traced : Recorder.t -> int -> string option;
    (* the same call broken into spans; the wire document if accepted *)
  stored : int -> D.t option;
    (* what the receiver holds after the n-th document, where this
       process can see it *)
  probe : probe;
  registry : Registry.t;
  pipeline : unit -> Pipeline.t;
  close : unit -> unit;
}

let refused e = Refused (Fmt.str "%a" Enforcement.pp_error e)

let run_step lane n = try lane.step n with e -> Failed (Printexc.to_string e)

let print r d =
  let x = Recorder.span r Recorder.Syntax_to_xml (fun () -> Syntax.to_xml d) in
  Recorder.span r Recorder.Xml_print (fun () -> Xml_print.to_string x)

let batch_lane st sc pool ~lanes ~lane =
  let probe = { recorder = None } in
  let registry = Registry.create ~principal:"ledger" () in
  Registry.register_all registry (services st sc ~lane probe);
  let p =
    Pipeline.create ~config:enforcement_config ~s0:sc.s0 ~exchange:sc.exchange
      ~invoker:(Registry.invoker registry) ()
  in
  let xml n = pool.xml.(doc_index pool ~lanes ~lane n) in
  let step n =
    match Syntax.of_xml_string (xml n) with
    | exception Syntax.Syntax_error m -> Failed m
    | doc ->
      (match Pipeline.enforce p doc with
       | Ok (d, _) -> Out_xml (Syntax.to_xml_string ~pretty:false d)
       | Error e -> refused e)
  in
  let traced r n =
    let tree = Recorder.span r Recorder.Xml_parser (fun () -> Xml_parser.parse (xml n)) in
    let doc = Recorder.span r Recorder.Syntax_of_xml (fun () -> Syntax.of_xml tree) in
    match Recorder.span r Recorder.Enforcement (fun () -> Pipeline.enforce p doc) with
    | Ok (d, _) -> Some (print r d)
    | Error _ -> None
  in
  { step; traced; stored = (fun _ -> None); probe; registry; pipeline = (fun () -> p);
    close = ignore }

let sender_peer st sc ~lane probe =
  let sender = Peer.create ~name:(Printf.sprintf "ledger-sender-%d" lane) ~schema:sc.s0 () in
  Peer.configure sender { Peer.default_config with Peer.k };
  Registry.register_all (Peer.registry sender) (services st sc ~lane probe);
  sender

let exchange_lane st sc pool ~lanes ~lane =
  let probe = { recorder = None } in
  let sender = sender_peer st sc ~lane probe in
  let receiver = Peer.create ~name:"ledger-receiver" ~schema:sc.exchange () in
  let exchange = sc.exchange in
  let doc n = pool.docs.(doc_index pool ~lanes ~lane n) in
  let step n =
    match Peer.send sender ~receiver ~exchange ~as_name:(as_name n) (doc n) with
    | Ok o -> Out_doc o.Peer.sent
    | Error e -> refused e
  in
  let traced r n =
    let p = Peer.exchange_pipeline sender ~exchange in
    match Recorder.span r Recorder.Enforcement (fun () -> Pipeline.enforce p (doc n)) with
    | Error _ -> None
    | Ok (d, _) ->
      let wire = print r d in
      (match
         Recorder.span r Recorder.Peer_receive (fun () ->
             Peer.receive receiver ~exchange ~as_name:(as_name n) wire)
       with
       | Ok _ -> Some wire
       | Error _ -> None)
  in
  let stored n = Some (Peer.fetch receiver (as_name n)) in
  { step; traced; stored; probe; registry = Peer.registry sender;
    pipeline = (fun () -> Peer.exchange_pipeline sender ~exchange);
    close = ignore }

let served_lane st sc pool server ~lanes ~lane =
  let probe = { recorder = None } in
  let sender = sender_peer st sc ~lane probe in
  let exchange = sc.exchange in
  let client = Client.connect ~port:server.port () in
  (* The traced replay ships through its own agreement; Client.send opens
     and caches another one on its first document. *)
  let agreement = open_agreement client sc in
  let doc n = pool.docs.(doc_index pool ~lanes ~lane n) in
  let step n =
    match Client.send client ~sender ~exchange ~as_name:(as_name n) (doc n) with
    | Ok o -> Out_doc o.Peer.sent
    | Error e -> refused e
  in
  let traced r n =
    let p = Peer.exchange_pipeline sender ~exchange in
    match Recorder.span r Recorder.Enforcement (fun () -> Pipeline.enforce p (doc n)) with
    | Error _ -> None
    | Ok (d, _) ->
      let wire = print r d in
      let req = Wire.Exchange { exchange = agreement; as_name = as_name n; doc_xml = wire } in
      (match Recorder.span r Recorder.Client_rpc (fun () -> Client.rpc client req) with
       | Wire.Accepted _ -> Some wire
       | Wire.Refused _ -> None
       | resp -> incorrect "traced exchange answered %a" Wire.pp_response resp)
  in
  { step; traced; stored = (fun _ -> None); probe; registry = Peer.registry sender;
    pipeline = (fun () -> Peer.exchange_pipeline sender ~exchange);
    close = (fun () -> Client.close client) }

(* ------------------------------------------------------------------ *)
(* Set-up and reference                                                *)
(* ------------------------------------------------------------------ *)

type instance = { sc : schemas; lanes : lane array; server : server option }

let teardown inst =
  Array.iter (fun l -> l.close ()) inst.lanes;
  Option.iter stop_server inst.server

(* Run [f j ()] for every lane, one thread each, and re-raise the first
   exception a lane ended with. *)
let in_lanes n f =
  if n = 1 then f 0 ()
  else begin
    let failure = Atomic.make None in
    let run j () =
      try f j () with e -> ignore (Atomic.compare_and_set failure None (Some e))
    in
    Array.iter Thread.join (Array.init n (fun j -> Thread.create (run j) ()));
    Option.iter raise (Atomic.get failure)
  end

(* One set-up, timed: schema load, server spawn, peers, pipelines,
   connections and agreements, then the lanes' warm-up documents, run
   concurrently as in the measured phase. Returns the instance and the
   set-up's length in ns. *)
let setup st (w : workload) pool =
  let t0 = now_ns () in
  let sc = load_schemas w in
  let server =
    match w.path with
    | Served -> Some (spawn_server ~schema_path:w.exchange)
    | Batch | Exchange -> None
  in
  let lanes = ref [] in
  let inst () = { sc; lanes = Array.of_list (List.rev !lanes); server } in
  (try
     for lane = 0 to w.lanes - 1 do
       let make =
         match w.path, server with
         | Batch, _ -> batch_lane st sc pool
         | Exchange, _ -> exchange_lane st sc pool
         | Served, Some s -> served_lane st sc pool s
         | Served, None -> assert false
       in
       lanes := make ~lanes:w.lanes ~lane :: !lanes
     done;
     let lanes = (inst ()).lanes in
     in_lanes w.lanes (fun j () ->
         for n = 0 to (st.warmup / w.lanes) - 1 do
           match run_step lanes.(j) n with
           | Failed m -> incorrect "%s: warm-up document %d of lane %d failed: %s" w.name n j m
           | Out_xml _ | Out_doc _ | Refused _ -> ()
         done)
   with e -> teardown (inst ()); raise e);
  (inst (), now_ns () - t0)

(* The sequential in-process reference for one lane, computed with a
   plain pipeline over the generated documents (no parse, no peer, no
   socket) and fresh services seeded like the lane's, in the shape the
   workload's path produces. Every accepted output must be an instance
   of the exchange schema. *)
let reference st (w : workload) pool ~lane =
  let sc = load_schemas w in
  let registry = Registry.create ~principal:"ledger" () in
  Registry.register_all registry (services st sc ~lane { recorder = None });
  let p =
    Pipeline.create ~config:enforcement_config ~s0:sc.s0 ~exchange:sc.exchange
      ~invoker:(Registry.invoker registry) ()
  in
  let ctx = Validate.ctx sc.exchange in
  let enforce n = Pipeline.enforce p pool.docs.(doc_index pool ~lanes:w.lanes ~lane n) in
  let warm = st.warmup / w.lanes in
  for n = 0 to warm - 1 do ignore (enforce n) done;
  Array.init (st.check / w.lanes) (fun i ->
      match enforce (warm + i) with
      | Ok (d, _) ->
        if not (Validate.document_conforms ctx d) then
          incorrect "%s: reference output %d of lane %d is not an instance of %s"
            w.name i lane w.exchange;
        (match w.path with
         | Batch -> Out_xml (Syntax.to_xml_string ~pretty:false d)
         | Exchange | Served -> Out_doc d)
      | Error e -> refused e)

let matches expected outcome =
  match expected, outcome with
  | Out_xml a, Out_xml b -> String.equal a b
  | Out_doc a, Out_doc b -> D.equal a b
  | Refused a, Refused b -> String.equal a b
  | _ -> false

let describe = function
  | Out_xml s -> "accepted " ^ s
  | Out_doc d -> "accepted " ^ Syntax.to_xml_string ~pretty:false d
  | Refused m -> "refused: " ^ m
  | Failed m -> "failed: " ^ m

(* ------------------------------------------------------------------ *)
(* Measured phase                                                      *)
(* ------------------------------------------------------------------ *)

let cache_stats inst =
  Array.fold_left
    (fun acc l -> Contract.add_stats acc (Contract.stats (Pipeline.contract (l.pipeline ()))))
    { Contract.hits = 0; misses = 0; evictions = 0; entries = 0 }
    inst.lanes

let invocations inst =
  Array.fold_left (fun acc l -> acc + Registry.invocation_count l.registry) 0 inst.lanes

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let percentile sorted q =
  sorted.(min (Array.length sorted - 1) (int_of_float (q *. float_of_int (Array.length sorted))))

type measured = {
  docs : int;
  failures : int;
  span_ns : int;            (* wall-clock length of the phase *)
  busy_ns : float;          (* the same, probes left out, scaled (speed.ml) *)
  latencies : float array;  (* ns, scaled, sorted: documents that overlapped no probe *)
  raw_latencies : float array;  (* ns as measured, sorted: every document *)
  speed_scale : float;      (* median scale of the phase's probes *)
  minor_words : float;      (* the probes' own allocation left out *)
  retained_words : int;
  cache : Contract.stats;
  calls : int;
}

(* Every lane runs its documents [first, first + per_lane) closed-loop,
   while lane 0 takes the machine-speed probes. The first outputs of
   each lane, and what the receiver stored where this process can see
   it, are compared with its reference; a mismatch is a correctness
   failure. *)
let measure inst expected ~first ~per_lane ~expected_s =
  let nl = Array.length inst.lanes in
  let total = per_lane * nl in
  let lat = Array.make total 0 and done_at = Array.make total 0 in
  let failures = Atomic.make 0 in
  let mismatch = ref None in
  let cache0 = cache_stats inst and calls0 = invocations inst in
  let live0 = live_words () in
  let speed = Speed.begin_phase ~expected_s in
  let t_start = speed.Speed.t_start in
  let minor0 = Gc.minor_words () in
  let run j () =
    let lane = inst.lanes.(j) and exp = expected.(j) in
    for i = 0 to per_lane - 1 do
      let t0 = now_ns () in
      let out = run_step lane (first + i) in
      let t1 = now_ns () in
      lat.((j * per_lane) + i) <- t1 - t0;
      done_at.((j * per_lane) + i) <- t1 - t_start;
      if j = 0 then Speed.tick speed;
      if i < Array.length exp then begin
        let wrong =
          if not (matches exp.(i) out) then Some ("got   ", out)
          else
            match out with
            | Out_doc _ ->
              Option.bind (lane.stored (first + i)) (fun d ->
                  if matches exp.(i) (Out_doc d) then None else Some ("stored", Out_doc d))
            | Out_xml _ | Refused _ | Failed _ -> None
        in
        Option.iter
          (fun w ->
            Atomic.incr failures;
            if !mismatch = None then mismatch := Some (j, i, w))
          wrong
      end
      else match out with Failed _ -> Atomic.incr failures | _ -> ()
    done
  in
  in_lanes nl run;
  let span = now_ns () - t_start in
  let minor_words = Gc.minor_words () -. minor0 -. speed.Speed.words in
  Speed.end_phase speed;
  let live1 = live_words () in
  (match !mismatch with
   | None -> ()
   | Some (j, i, (what, out)) ->
     incorrect "lane %d, measured document %d differs from the reference:@.  %s %s@.  want   %s"
       j i what (describe out) (describe expected.(j).(i)));
  let latencies =
    Array.of_seq
      (Seq.filter_map
         (fun i -> Option.map (fun s -> float_of_int lat.(i) *. s)
             (Speed.locate speed ~t0:(done_at.(i) - lat.(i)) ~t1:done_at.(i)))
         (Seq.init total Fun.id))
  in
  Array.sort Float.compare latencies;
  let raw_latencies = Array.map float_of_int lat in
  Array.sort Float.compare raw_latencies;
  { docs = total;
    failures = Atomic.get failures;
    span_ns = span;
    busy_ns = Speed.busy_ns speed;
    latencies;
    raw_latencies;
    speed_scale = Speed.median_scale speed;
    minor_words;
    retained_words = live1 - live0;
    cache = Contract.diff_stats ~before:cache0 (cache_stats inst);
    calls = invocations inst - calls0 }

(* ------------------------------------------------------------------ *)
(* Traced run and isolated layers                                      *)
(* ------------------------------------------------------------------ *)

(* Wire documents kept from the traced run for the isolated loops. *)
let sample_size = 5_000

(* Documents the contract's static check is timed on. *)
let check_sample = 2_000

(* Traced and untraced documents alternate in blocks of this many, so
   that both halves of the traced run see the same machine. *)
let block = 50

type traced = {
  recorders : Recorder.t list;
  wires : string array;     (* up to [sample_size] accepted wire documents of lane 0 *)
  untraced : int array;     (* ns of each interleaved untraced document *)
}

(* Run every lane from its document [first], alternating a block of
   untraced top-level calls with a block of traced ones until about
   [traced] documents per lane were traced. *)
let traced_run inst ~first ~traced ~spans_per_doc =
  let nl = Array.length inst.lanes in
  let blocks = max 1 (traced / block) in
  let recorders =
    Array.init nl (fun lane -> Recorder.create ~lane ~capacity:(blocks * block * spans_per_doc))
  in
  let untraced = Array.make (nl * blocks * block) 0 in
  let wires = Array.make sample_size "" in
  let sampled = ref 0 in
  let run j () =
    let lane = inst.lanes.(j) and r = recorders.(j) in
    Fun.protect ~finally:(fun () -> lane.probe.recorder <- None) @@ fun () ->
    for b = 0 to blocks - 1 do
      let base = first + (2 * b * block) in
      lane.probe.recorder <- None;
      for i = 0 to block - 1 do
        let n = base + i in
        let t0 = now_ns () in
        (match run_step lane n with
         | Failed m -> incorrect "document %d of lane %d failed: %s" n j m
         | Out_xml _ | Out_doc _ | Refused _ -> ());
        untraced.((((j * blocks) + b) * block) + i) <- now_ns () - t0
      done;
      lane.probe.recorder <- Some r;
      for n = base + block to base + (2 * block) - 1 do
        Recorder.set_doc r n;
        match Recorder.span r Recorder.Doc (fun () -> lane.traced r n) with
        | Some wire when j = 0 && !sampled < sample_size ->
          wires.(!sampled) <- wire;
          incr sampled
        | Some _ | None -> ()
        | exception e ->
          incorrect "traced document %d of lane %d failed: %s" n j (Printexc.to_string e)
      done
    done
  in
  in_lanes nl run;
  { recorders = Array.to_list recorders; wires = Array.sub wires 0 !sampled; untraced }

(* Time [f] over every element: mean ns and minor words per element. *)
let loop items f =
  let n = float_of_int (max 1 (Array.length items)) in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let results = Array.map f items in
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  (results, float_of_int (t1 - t0) /. n, (w1 -. w0) /. n)

type rpc_costs = { rpc_ns : float; server_ns : float; overloads : float }

let server_delta c0 c1 =
  ( (c1.request_s -. c0.request_s) /. Float.max 1. (c1.requests -. c0.requests) *. 1e9,
    c1.overloads -. c0.overloads )

(* Client.rpc of pre-built Exchange requests under an opened agreement,
   against a freshly served peer. *)
let rpc_probe (w : workload) sc wires =
  let server = spawn_server ~schema_path:w.exchange in
  Fun.protect ~finally:(fun () -> stop_server server) @@ fun () ->
  let client = Client.connect ~port:server.port () in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  let id = open_agreement client sc in
  let requests =
    Array.mapi
      (fun i wire -> Wire.Exchange { exchange = id; as_name = as_name i; doc_xml = wire })
      wires
  in
  let c0 = server_counters server.port in
  let _, rpc_ns, _ =
    loop requests (fun req ->
        match Client.rpc client req with
        | Wire.Accepted _ -> ()
        | resp -> incorrect "probe exchange answered %a" Wire.pp_response resp)
  in
  let server_ns, overloads = server_delta c0 (server_counters server.port) in
  { rpc_ns; server_ns; overloads }

(* ------------------------------------------------------------------ *)
(* One workload                                                        *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit : string }

type report = {
  workload : workload;
  attempted : int;
  failed : int;
  e2e : metric list;
  layers : metric list;   (* empty without --trace 1 *)
  info : metric list;     (* printed and written, not part of BENCHMARK.json *)
  recorders : Recorder.t list;
}

let m name value unit = { name; value; unit }

(* The traced run and the isolated layer loops. A layer on the
   workload's traced path is read off its spans; a layer off the path is
   timed in isolation on this workload's own documents, because a traced
   run must report every per-layer metric BENCHMARK.json lists, on every
   workload. *)
let layer_metrics (w : workload) pool inst ms ~first ~per_lane
    ~(c_start : server_counters option) =
  let docs = float_of_int ms.docs in
  let calls_per_doc = float_of_int ms.calls /. docs in
  let counters () = Option.map (fun s -> server_counters s.port) inst.server in
  let c_traced = counters () in
  (* Continuing each lane's stream: a tenth of the run's length traced
     (at least 2000 documents per lane, for stable means on short runs)
     and as many untraced in between. Replaying the first documents
     instead would find their analyses still cached on short runs. *)
  let { recorders; wires; untraced } =
    traced_run inst ~first:(first + per_lane) ~traced:(max 2_000 (per_lane / 10))
      ~spans_per_doc:(8 + (2 * int_of_float (Float.ceil calls_per_doc)))
  in
  let c_end = counters () in
  if Array.length wires = 0 then incorrect "%s: the traced run accepted no document" w.name;
  let tot = Recorder.totals recorders in
  let traced_docs = float_of_int tot.Recorder.count.(Recorder.index Recorder.Doc) in
  let span l = tot.Recorder.dur_ns.(Recorder.index l) /. traced_docs in
  let span_words l = tot.Recorder.words.(Recorder.index l) /. traced_docs in
  let sc = inst.sc in
  let mean_bytes a =
    float_of_int (Array.fold_left (fun acc s -> acc + String.length s) 0 a)
    /. float_of_int (Array.length a)
  in
  (* Off the batch path: the documents this workload's receiver parses. *)
  let trees, parse_ns, parse_words = loop wires Xml_parser.parse in
  let received, of_xml_ns, _ = loop trees Syntax.of_xml in
  let parse_ns, parse_words, parse_bytes, of_xml_ns =
    match w.path with
    | Batch ->
      let inputs =
        List.concat_map
          (fun r ->
            List.map
              (fun n -> pool.xml.(doc_index pool ~lanes:w.lanes ~lane:r.Recorder.lane n))
              (Recorder.docs r))
          recorders
      in
      (span Recorder.Xml_parser, span_words Recorder.Xml_parser,
       mean_bytes (Array.of_list inputs),
       span Recorder.Syntax_of_xml)
    | Exchange | Served -> (parse_ns, parse_words, mean_bytes wires, of_xml_ns)
  in
  let vctx = Validate.ctx ~env:(Schema.env_of_schemas sc.exchange sc.exchange) sc.exchange in
  let _, validate_ns, _ = loop received (Validate.document_violations vctx) in
  let receive_ns =
    match w.path with
    | Exchange -> span Recorder.Peer_receive
    | Batch | Served ->
      let scratch = Peer.create ~name:"ledger-scratch" ~schema:sc.exchange () in
      let _, ns, _ =
        loop wires (fun wire ->
            Peer.receive scratch ~exchange:sc.exchange ~as_name:"scratch" wire)
      in
      ns
  in
  let requests =
    Array.map
      (fun wire -> Wire.Exchange { exchange = 1; as_name = "doc-000"; doc_xml = wire })
      wires
  in
  let encoded, encode_ns, _ = loop requests Wire.encode_request in
  let _, decode_ns, _ = loop encoded Wire.decode_request in
  let rpc =
    match c_start, c_traced, c_end with
    | Some c0, Some c1, Some c2 ->
      let server_ns, _ = server_delta c1 c2 in
      { rpc_ns = span Recorder.Client_rpc; server_ns; overloads = c2.overloads -. c0.overloads }
    | _ -> rpc_probe w sc wires
  in
  (* The contract's static check alone, on a fresh clone (empty cache)
     and again on the same documents. *)
  let rw =
    Rewriter.of_contract (Contract.clone (Pipeline.contract (inst.lanes.(0).pipeline ())))
  in
  let sample = Array.sub pool.docs 0 check_sample in
  let _, check_cold_ns, _ = loop sample (fun d -> Rewriter.check rw d) in
  let _, check_warm_ns, _ = loop sample (fun d -> Rewriter.check rw d) in
  let lookups = ms.cache.Contract.hits + ms.cache.Contract.misses in
  (* Residual and overhead compare the interleaved halves, each without
     its slowest 1%: a scheduler stall of a few ms on one side would
     otherwise outweigh thousands of documents. *)
  let cut a =
    let a = Array.copy a in
    Array.sort compare a;
    percentile a 0.99
  in
  let untraced_ns =
    let c = cut untraced in
    let kept = List.filter (fun d -> d <= c) (Array.to_list untraced) in
    float_of_int (List.fold_left ( + ) 0 kept) /. float_of_int (List.length kept)
  in
  let doc_ns, layers_ns =
    Recorder.doc_means recorders ~cut:(cut (Recorder.doc_durations recorders))
  in
  ( [ m "xml_parser.ns_per_doc" parse_ns "ns";
      m "xml_parser.mb_per_s" (parse_bytes /. parse_ns *. 1e3) "MB/s";
      m "xml_parser.words_per_doc" parse_words "words";
      m "syntax.of_xml_ns_per_doc" of_xml_ns "ns";
      m "syntax.to_xml_ns_per_doc" (span Recorder.Syntax_to_xml) "ns";
      m "xml_print.ns_per_doc" (span Recorder.Xml_print) "ns";
      m "enforcement.ns_per_doc" (span Recorder.Enforcement) "ns";
      m "enforcement.self_ns_per_doc"
        (tot.Recorder.self_ns.(Recorder.index Recorder.Enforcement) /. traced_docs) "ns";
      m "enforcement.words_per_doc" (span_words Recorder.Enforcement) "words";
      m "contract.hit_rate"
        (float_of_int ms.cache.Contract.hits /. float_of_int (max 1 lookups)) "ratio";
      m "contract.misses_per_doc" (float_of_int ms.cache.Contract.misses /. docs) "count/doc";
      m "contract.evictions_per_doc" (float_of_int ms.cache.Contract.evictions /. docs) "count/doc";
      m "contract.check_cold_ns_per_doc" check_cold_ns "ns";
      m "contract.check_warm_ns_per_doc" check_warm_ns "ns";
      m "execute.invocations_per_doc" calls_per_doc "count/doc";
      m "execute.service_ns_per_doc" (span Recorder.Service) "ns";
      m "validate.ns_per_doc" validate_ns "ns";
      m "peer.receive_ns_per_doc" receive_ns "ns";
      m "wire.encode_ns_per_msg" encode_ns "ns";
      m "wire.decode_ns_per_msg" decode_ns "ns";
      m "wire.bytes_per_doc" (mean_bytes encoded) "B";
      m "client.rpc_ns_per_doc" rpc.rpc_ns "ns";
      m "server.request_ns_per_doc" rpc.server_ns "ns";
      m "server.overload_total" rpc.overloads "count";
      m "transport.ns_per_doc" (rpc.rpc_ns -. rpc.server_ns -. encode_ns -. decode_ns) "ns";
      m "ledger.residual_frac" (Float.abs (untraced_ns -. layers_ns) /. untraced_ns) "ratio";
      m "trace.overhead_frac" ((doc_ns /. untraced_ns) -. 1.) "ratio" ],
    recorders )

let run_workload st w =
  let pool = make_pool st w in
  let expected = Array.init w.lanes (fun lane -> reference st w pool ~lane) in
  (* Batch lanes read only the XML; keep the documents the static check
     is timed on. *)
  let pool =
    match w.path with
    | Batch -> { pool with docs = Array.sub pool.docs 0 check_sample }
    | Exchange | Served -> pool
  in
  (* Repeated set-ups, each scaled by a probe taken right after it; the
     last one is measured. *)
  let setup_times = ref [] in
  let rec setups i =
    let inst, dt = setup st w pool in
    setup_times := Speed.scaled dt (Speed.probe ()) /. 1e9 :: !setup_times;
    if i < st.setups then (teardown inst; setups (i + 1)) else inst
  in
  let inst = setups 1 in
  Fun.protect ~finally:(fun () -> teardown inst) @@ fun () ->
  let per_lane = measured_per_lane st w and first = st.warmup / w.lanes in
  let c_start = Option.map (fun s -> server_counters s.port) inst.server in
  let ms =
    measure inst expected ~first ~per_lane
      ~expected_s:(float_of_int (per_lane * w.lanes) /. float_of_int w.docs_per_s)
  in
  let docs = float_of_int ms.docs in
  let us a q = percentile a q /. 1e3 in
  let e2e =
    [ m "setup_s" (median !setup_times) "s";
      m "docs_per_s" (docs /. ms.busy_ns *. 1e9) "1/s";
      m "latency_p50_us" (us ms.latencies 0.50) "us";
      m "latency_p99_us" (us ms.latencies 0.99) "us";
      m "alloc_words_per_doc" (ms.minor_words /. docs) "words";
      m "heap_retained_mb" (float_of_int ms.retained_words *. 8. /. 1e6) "MB";
      m "completed_frac" (1. -. (float_of_int ms.failures /. docs)) "ratio" ]
  in
  let info =
    [ m "failed_frac" (float_of_int ms.failures /. docs) "ratio";
      m "latency_samples" (float_of_int (Array.length ms.latencies)) "count";
      m "speed_scale" ms.speed_scale "ratio";
      m "wall_docs_per_s" (docs /. float_of_int ms.span_ns *. 1e9) "1/s";
      m "wall_latency_p50_us" (us ms.raw_latencies 0.50) "us";
      m "wall_latency_p99_us" (us ms.raw_latencies 0.99) "us";
      m "compared_docs"
        (float_of_int (Array.fold_left (fun a e -> a + Array.length e) 0 expected)) "count" ]
  in
  let layers, recorders =
    if st.trace then layer_metrics w pool inst ms ~first ~per_lane ~c_start else ([], [])
  in
  { workload = w; attempted = ms.docs; failed = ms.failures; e2e; layers; info; recorders }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let metric_json x = Json.Obj [ ("value", Json.Num x.value); ("unit", Json.Str x.unit) ]

let print_report st r =
  let w = r.workload in
  Printf.printf "== %s  (%d lane%s, %d documents measured, seed %d%s)\n" w.name w.lanes
    (if w.lanes = 1 then "" else "s") r.attempted st.seed
    (if st.smoke then ", smoke" else "");
  List.iter
    (fun x -> Printf.printf "  %-34s %16.4f %s\n" x.name x.value x.unit)
    (r.e2e @ r.info @ r.layers);
  flush stdout

let report_json r =
  ( r.workload.name,
    Json.Obj
      [ ("correct", Json.Bool true);
        ("attempted", Json.Num (float_of_int r.attempted));
        ("failed", Json.Num (float_of_int r.failed));
        ("metrics",
         Json.Obj (List.map (fun x -> (x.name, metric_json x)) (r.e2e @ r.info @ r.layers))) ] )

let run_json st reports =
  Json.Obj
    [ ("mode", Json.Str (if st.smoke then "smoke" else "full"));
      ("seed", Json.Num (float_of_int st.seed));
      ("seconds", Json.Num (float_of_int st.seconds));
      ("trace", Json.Bool st.trace);
      ("workloads", Json.Obj (List.map report_json reports)) ]

(* The last line of standard output: the end-to-end metrics untraced,
   the per-layer metrics traced; names get a workload prefix when
   several workloads ran. *)
let summary_line st reports =
  let single = List.length reports = 1 in
  let metrics =
    List.concat_map
      (fun r ->
        List.map
          (fun x -> ((if single then x.name else r.workload.name ^ "/" ^ x.name), metric_json x))
          (if st.trace then r.layers else r.e2e))
      reports
  in
  let sum f = Json.Num (float_of_int (List.fold_left (fun a r -> a + f r) 0 reports)) in
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool true);
         ("attempted", sum (fun r -> r.attempted));
         ("failed", sum (fun r -> r.failed));
         ("metrics", Json.Obj metrics) ])

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

(* ------------------------------------------------------------------ *)
(* Baseline: aggregation and the @ci gate                              *)
(* ------------------------------------------------------------------ *)

(* Quartiles as Python's statistics.quantiles(values, n=4) gives them
   (the exclusive method). *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 1 then (a.(0), a.(0), a.(0))
  else
    let at k =
      let p = float_of_int ((n + 1) * k) /. 4. in
      let j = max 1 (min (n - 1) (int_of_float p)) in
      let delta = p -. float_of_int j in
      a.(j - 1) +. ((a.(j) -. a.(j - 1)) *. delta)
    in
    (at 1, median values, at 3)

let read_json path =
  try Json.of_string (read_file path)
  with Json.Parse_error e -> failwith (Printf.sprintf "%s: %s" path e)

let workload_metrics run =
  match Json.path [ "workloads" ] run with
  | Some (Json.Obj ws) ->
    List.map
      (fun (wname, wj) ->
        match Json.member "metrics" wj with
        | Some (Json.Obj ms) -> (wname, ms)
        | _ -> (wname, []))
      ws
  | _ -> []

(* Median and IQR of every metric over the full runs, laid out like the
   first of them; the smoke run is kept whole for the gate. *)
let aggregate paths =
  let full, smoke =
    List.partition
      (fun r -> Json.member "mode" r = Some (Json.Str "full"))
      (List.map read_json paths)
  in
  let summarize wname (mname, mj) =
    let values =
      List.filter_map
        (fun r ->
          Option.bind (Json.path [ "workloads"; wname; "metrics"; mname; "value" ] r)
            Json.to_float)
        full
    in
    let q1, med, q3 = quartiles values in
    ( mname,
      Json.Obj
        [ ("median", Json.Num med); ("iqr", Json.Num (q3 -. q1)); ("q1", Json.Num q1);
          ("q3", Json.Num q3);
          ("unit", Option.value (Json.member "unit" mj) ~default:Json.Null) ] )
  in
  Json.Obj
    [ ("runs", Json.Num (float_of_int (List.length full)));
      ("full",
       Json.Obj
         (match full with
          | first :: _ ->
            List.map
              (fun (wname, ms) -> (wname, Json.Obj (List.map (summarize wname) ms)))
              (workload_metrics first)
          | [] -> []));
      ("smoke", match smoke with s :: _ -> s | [] -> Json.Null) ]

(* Machine-independent comparisons of a smoke run against the committed
   baseline's smoke run: no failed document, call and miss counts
   exactly on the sequential workloads, allocation within 5%, and layers
   that add up. *)
let gate baseline reports =
  let base = read_json baseline in
  let ok = ref true in
  let check w name pass detail =
    Printf.printf "gate %-16s %-28s %s  %s\n" w name (if pass then "ok  " else "FAIL") detail;
    if not pass then ok := false
  in
  List.iter
    (fun r ->
      let w = r.workload.name in
      let find name = List.find (fun x -> x.name = name) (r.e2e @ r.layers) in
      let base_value name =
        match
          Option.bind
            (Json.path [ "smoke"; "workloads"; w; "metrics"; name; "value" ] base)
            Json.to_float
        with
        | Some v -> v
        | None -> failwith (Printf.sprintf "%s: no smoke value for %s/%s" baseline w name)
      in
      let exact name =
        let got = (find name).value and want = base_value name in
        check w name (Float.abs (got -. want) <= 1e-9 *. Float.max 1. (Float.abs want))
          (Printf.sprintf "%.6f (baseline %.6f)" got want)
      in
      check w "failed_frac" (r.failed = 0)
        (Printf.sprintf "%d of %d documents failed (none allowed)" r.failed r.attempted);
      if r.workload.lanes = 1 then begin
        exact "execute.invocations_per_doc";
        exact "contract.misses_per_doc"
      end;
      let got = (find "alloc_words_per_doc").value
      and want = base_value "alloc_words_per_doc" in
      check w "alloc_words_per_doc" (Float.abs (got -. want) <= 0.05 *. want)
        (Printf.sprintf "%.1f (baseline %.1f, within 5%%)" got want);
      let residual = (find "ledger.residual_frac").value in
      check w "ledger.residual_frac" (residual <= 0.15)
        (Printf.sprintf "%.4f (at most 0.15)" residual))
    reports;
  !ok

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 2003 and seconds = ref 10 and trace = ref 1 in
  let smoke = ref false and spans = ref "" and out = ref "" and baseline = ref "" in
  let aggregate_mode = ref false and serve = ref "" and files = ref [] in
  let usage = "ledger.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--spans FILE] [-o FILE]" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       "W  run one workload: " ^ String.concat ", " (List.map (fun (w : workload) -> w.name) workloads));
      ("--seed", Arg.Set_int seed, "N  input seed (default 2003)");
      ("--seconds", Arg.Set_int seconds, "S  run length in seconds (default 10)");
      ("--trace", Arg.Set_int trace,
       "0|1  1 (default) adds the traced run and prints per-layer metrics last");
      ("--smoke", Arg.Set smoke, " short run with reduced counts");
      ("--spans", Arg.Set_string spans, "FILE  write the traced spans as JSON lines");
      ("-o", Arg.Set_string out, "FILE  write every metric as JSON");
      ("--baseline", Arg.Set_string baseline,
       "FILE  compare a smoke run with a committed baseline; exit 1 on regression");
      ("--aggregate", Arg.Set aggregate_mode,
       " summarize the run files given as arguments into a baseline (written to -o)");
      ("--serve", Arg.Set_string serve, "SCHEMA  (internal) serve a receiver peer") ]
    (fun f -> files := f :: !files)
    usage;
  if !serve <> "" then serve_child ~schema_path:!serve
  else if !aggregate_mode then begin
    let b = Json.to_string ~indent:2 (aggregate (List.rev !files)) ^ "\n" in
    if !out = "" then print_string b else write_file !out b
  end
  else begin
    pin_first_cpu ();
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let st =
      settings ~seed:!seed ~seconds:(max 1 !seconds) ~smoke:!smoke
        ~trace:(!trace <> 0 || !baseline <> "")
    in
    let selected =
      if !workload = "" then workloads
      else
        match List.find_opt (fun (w : workload) -> w.name = !workload) workloads with
        | Some w -> [ w ]
        | None ->
          Printf.eprintf "ledger: unknown workload %S\n" !workload;
          exit 2
    in
    match
      List.map
        (fun w ->
          let r = run_workload st w in
          print_report st r;
          Gc.compact ();
          r)
        selected
    with
    | exception Incorrect msg ->
      Printf.eprintf "ledger: INCORRECT: %s\n" msg;
      exit 1
    | reports ->
      if !spans <> "" then
        Out_channel.with_open_bin !spans (fun oc ->
            List.iter
              (fun r -> Recorder.write_jsonl oc ~workload:r.workload.name r.recorders)
              reports);
      if !out <> "" then write_file !out (Json.to_string ~indent:2 (run_json st reports) ^ "\n");
      let gate_ok = !baseline = "" || gate !baseline reports in
      print_endline (summary_line st reports);
      if not gate_ok then exit 1
  end
