(* Threaded socket server: accept thread + one thread per connection,
   protocol sniffed from the first bytes, explicit resource bounds,
   graceful drain on stop. *)

module Json = Axml_obs.Json
module Metrics = Axml_obs.Metrics

type config = {
  max_connections : int;
  max_in_flight : int;
}

let default_config = { max_connections = 64; max_in_flight = 32 }
let error_budget = 8

(* How long [stop] waits for in-flight work. *)
let drain_timeout_s = 5.0

let http_read_timeout_s = 3.0

type t = {
  endpoint : Endpoint.t;
  config : config;
  listen_fd : Unix.file_descr;
  port : int;
  stopping : bool Atomic.t;
  in_flight : int Atomic.t;
  conns : (Unix.file_descr, Thread.t) Hashtbl.t;
  conns_lock : Mutex.t;
  accept_thread : Thread.t Option.t ref;
  (* The /exchange route's standing agreement: the server peer's own
     schema, opened lazily once and reused for every POST. *)
  http_exchange : int option ref;
  http_exchange_lock : Mutex.t;
}

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let g_connections =
  Metrics.gauge ~help:"Open server connections" "axml_net_connections"

let g_in_flight =
  Metrics.gauge ~help:"Requests currently being served" "axml_net_in_flight"

let m_conns_binary =
  Metrics.counter ~help:"Connections accepted, by protocol"
    ~labels:[ ("kind", "binary") ] "axml_net_connections_total"

let m_conns_http =
  Metrics.counter ~help:"Connections accepted, by protocol"
    ~labels:[ ("kind", "http") ] "axml_net_connections_total"

let m_overload =
  Metrics.counter ~help:"Requests refused by admission control"
    "axml_net_overload_total"

let m_protocol_errors =
  Metrics.counter ~help:"Undecodable or torn requests" "axml_net_protocol_errors_total"

let h_request_seconds =
  Metrics.histogram ~help:"Wall-clock request service time"
    "axml_net_request_seconds"

(* ------------------------------------------------------------------ *)
(* Connection bookkeeping                                               *)
(* ------------------------------------------------------------------ *)

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Untrack and close under one lock hold: [stop] either still finds the
   connection (and joins its thread) or finds it already closed, so no
   descriptor outlives [stop]; and since [accept_loop] registers under
   the same lock, a reused fd number is never untracked or shut down as
   a stranger's. *)
let release t fd =
  with_lock t.conns_lock (fun () ->
      Hashtbl.remove t.conns fd;
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ()));
  Metrics.set g_connections (float_of_int (Hashtbl.length t.conns))

let connections t = with_lock t.conns_lock (fun () -> Hashtbl.length t.conns)
let in_flight t = Atomic.get t.in_flight
let endpoint t = t.endpoint
let port t = t.port

(* A request admitted at [t0] is done: its service time is observed
   (on the default registry's clock, which [h_request_seconds] uses)
   and it leaves the in-flight count. *)
let[@inline] leave t t0 =
  Metrics.observe h_request_seconds (Metrics.now Metrics.default -. t0);
  ignore (Atomic.fetch_and_add t.in_flight (-1));
  Metrics.set g_in_flight (float_of_int (Atomic.get t.in_flight))

(* Admission control: serve [req] counted against the in-flight bound,
   or answer "overloaded" without touching the pipeline when the server
   is already at capacity. The request is timed and counted out by
   hand, with no closure, as [Peer.store] unlocks. *)
let serve_request t req : Wire.response =
  if Atomic.get t.stopping then
    Wire.Error { code = "shutting-down"; reason = "server is draining" }
  else begin
    let n = Atomic.fetch_and_add t.in_flight 1 in
    if n >= t.config.max_in_flight then begin
      ignore (Atomic.fetch_and_add t.in_flight (-1));
      Metrics.inc m_overload;
      Wire.Error
        { code = "overloaded";
          reason =
            Fmt.str "admission control: %d request(s) already in flight"
              t.config.max_in_flight }
    end
    else begin
      Metrics.set g_in_flight (float_of_int (Atomic.get t.in_flight));
      let t0 = Metrics.now Metrics.default in
      match Endpoint.handle t.endpoint req with
      | resp ->
        leave t t0;
        resp
      | exception e ->
        leave t t0;
        raise e
    end
  end

(* ------------------------------------------------------------------ *)
(* Binary protocol connection                                           *)
(* ------------------------------------------------------------------ *)

(* Each connection reads its requests into its own frame. *)
let serve_binary t ic oc =
  let frame = Wire.frame () in
  let budget = ref error_budget in
  let rec loop () =
    match Wire.read frame ic with
    | false -> () (* clean EOF *)
    | exception Wire.Wire_error _ ->
      (* Torn frame or bad magic: the stream itself is unusable. *)
      Metrics.inc m_protocol_errors
    | exception Sys_error _ -> ()
    | true ->
      let resp =
        match Wire.request_of_frame frame with
        | req -> serve_request t req
        | exception Wire.Wire_error m ->
          (* Framed but undecodable: answer and charge the budget. *)
          Metrics.inc m_protocol_errors;
          decr budget;
          Wire.Error { code = "protocol"; reason = m }
      in
      (match Wire.write_response oc resp with
       | () -> if !budget > 0 then loop ()
       | exception Sys_error _ -> ())
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* HTTP connection                                                      *)
(* ------------------------------------------------------------------ *)

let split_target target =
  match String.index_opt target '?' with
  | None -> (target, [])
  | Some i ->
    let path = String.sub target 0 i in
    let query = String.sub target (i + 1) (String.length target - i - 1) in
    let params =
      String.split_on_char '&' query
      |> List.filter_map (fun kv ->
        match String.index_opt kv '=' with
        | None -> if kv = "" then None else Some (kv, "")
        | Some j ->
          Some (String.sub kv 0 j, String.sub kv (j + 1) (String.length kv - j - 1)))
    in
    (path, params)

(* The standing agreement backing POST /exchange: the server peer's own
   schema, opened through the endpoint once and reused. *)
let http_exchange_id t =
  with_lock t.http_exchange_lock @@ fun () ->
  match !(t.http_exchange) with
  | Some id -> Some id
  | None ->
    let schema_xml =
      Axml_peer.Xml_schema_int.to_string
        (Axml_peer.Peer.schema (Endpoint.peer t.endpoint))
    in
    let k = (Axml_peer.Peer.current_config (Endpoint.peer t.endpoint)).k in
    (match Endpoint.handle t.endpoint (Wire.Open_exchange { schema_xml; k }) with
     | Wire.Exchange_opened { id; k = _ } ->
       t.http_exchange := Some id;
       Some id
     | _ -> None)

let handle_http t oc (req : Http.request) =
  let respond = Http.write_response oc in
  match (req.meth, fst (split_target req.path)) with
  | "GET", "/metrics" ->
    (match serve_request t (Wire.Get_metrics { format = Wire.Prometheus }) with
     | Wire.Metrics { body; _ } ->
       respond ~status:200 ~content_type:"text/plain; version=0.0.4" body
     | Wire.Error { code = "overloaded"; reason } -> respond ~status:503 reason
     | r -> respond ~status:500 (Fmt.str "%a" Wire.pp_response r))
  | "GET", "/metrics.json" ->
    (match serve_request t (Wire.Get_metrics { format = Wire.Json }) with
     | Wire.Metrics { body; _ } ->
       respond ~status:200 ~content_type:"application/json" body
     | Wire.Error { code = "overloaded"; reason } -> respond ~status:503 reason
     | r -> respond ~status:500 (Fmt.str "%a" Wire.pp_response r))
  | "GET", "/health" -> respond ~status:200 "ok\n"
  | "POST", "/exchange" ->
    let _, params = split_target req.path in
    let as_name =
      match List.assoc_opt "as" params with
      | Some n when n <> "" -> n
      | _ -> "inbox"
    in
    (match http_exchange_id t with
     | None -> respond ~status:500 "could not open the exchange agreement\n"
     | Some exchange ->
       (match
          serve_request t (Wire.Exchange { exchange; as_name; doc_xml = req.body })
        with
        | Wire.Accepted { as_name; wire_bytes } ->
          respond ~status:200 ~content_type:"application/json"
            (Json.to_string
               (Json.Obj [ ("stored", Json.String as_name); ("bytes", Json.Int wire_bytes) ]))
        | Wire.Refused { refusals } ->
          respond ~status:422
            (String.concat ""
               (List.map
                  (fun { Wire.at; context } ->
                     Fmt.str "at /%s: %s\n"
                       (String.concat "/" (List.map string_of_int at))
                       context)
                  refusals))
        | Wire.Error { code = "overloaded" | "shutting-down"; reason } ->
          respond ~status:503 (reason ^ "\n")
        | Wire.Error { reason; _ } -> respond ~status:400 (reason ^ "\n")
        | r -> respond ~status:500 (Fmt.str "%a" Wire.pp_response r)))
  | _, path -> respond ~status:404 (Fmt.str "no route for %s %s\n" req.meth path)

let serve_http t ic oc =
  match Http.read_request ic with
  | None -> ()
  | Some req -> handle_http t oc req
  | exception Http.Http_error { status; reason } ->
    Metrics.inc m_protocol_errors;
    (try Http.write_response oc ~status (reason ^ "\n") with Sys_error _ -> ())
  | exception (Sys_error _ | Sys_blocked_io) -> ()  (* [Sys_blocked_io]: timed out *)

(* ------------------------------------------------------------------ *)
(* Connection lifecycle                                                 *)
(* ------------------------------------------------------------------ *)

(* Peek the first byte without consuming it, to tell the framed protocol
   (leading [Wire.magic]) from HTTP: no HTTP method in use here starts
   with the magic's first letter. *)
let sniff fd =
  let buf = Bytes.create 1 in
  let rec go () =
    match Unix.recv fd buf 0 1 [ Unix.MSG_PEEK ] with
    | 0 -> None
    | _ -> Some (Bytes.get buf 0)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let handle_connection t fd =
  Fun.protect ~finally:(fun () -> release t fd) @@ fun () ->
  match sniff fd with
  | None -> ()
  | Some first ->
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    if first = Wire.magic.[0] then begin
      Metrics.inc m_conns_binary;
      serve_binary t ic oc
    end
    else begin
      Metrics.inc m_conns_http;
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO http_read_timeout_s;
      serve_http t ic oc
    end;
    (try flush oc with Sys_error _ -> ())

let accept_loop t =
  while not (Atomic.get t.stopping) do
    match Unix.accept ~cloexec:true t.listen_fd with
    | fd, _addr ->
      if Atomic.get t.stopping || connections t >= t.config.max_connections
      then begin
        (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ())
      end
      else begin
        (* Register under the lock before the thread runs, so [stop]
           always sees (and joins) it. *)
        Mutex.lock t.conns_lock;
        let thread = Thread.create (handle_connection t) fd in
        Hashtbl.replace t.conns fd thread;
        Mutex.unlock t.conns_lock;
        Metrics.set g_connections (float_of_int (connections t))
      end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ ->
      (* The listening socket was shut down by [stop]. *)
      ()
  done

let start ?(config = default_config) ?(host = "127.0.0.1") ?(port = 0) endpoint =
  (* A client going away mid-response must be an EPIPE error on the
     connection thread, not a process-wide signal. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd addr;
     Unix.listen listen_fd 64
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  let port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  let t =
    { endpoint; config; listen_fd; port; stopping = Atomic.make false;
      in_flight = Atomic.make 0; conns = Hashtbl.create 16;
      conns_lock = Mutex.create (); accept_thread = ref None;
      http_exchange = ref None; http_exchange_lock = Mutex.create () }
  in
  t.accept_thread := Some (Thread.create accept_loop t);
  t

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (* Wake the accept thread. *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (match !(t.accept_thread) with
     | Some th -> Thread.join th
     | None -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (* Drain: let in-flight requests finish, bounded by the timeout. *)
    let deadline = Unix.gettimeofday () +. drain_timeout_s in
    while Atomic.get t.in_flight > 0 && Unix.gettimeofday () < deadline do
      Thread.yield ();
      ignore (Unix.select [] [] [] 0.01)
    done;
    (* Unblock idle readers, then join every connection thread. *)
    let threads =
      with_lock t.conns_lock @@ fun () ->
      Hashtbl.fold
        (fun fd th acc ->
           (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
           th :: acc)
        t.conns []
    in
    List.iter Thread.join threads;
    Metrics.set g_connections 0.
  end
