(* Socket client for a served peer. [send] mirrors [Peer.send]'s
   sender-side half exactly, so networked and in-process exchanges agree
   byte for byte. *)

module Peer = Axml_peer.Peer
module Soap = Axml_peer.Soap
module Syntax = Axml_peer.Syntax
module Enforcement = Axml_peer.Enforcement
module Rewriter = Axml_core.Rewriter

exception Net_error of string

let fail fmt = Fmt.kstr (fun m -> raise (Net_error m)) fmt

type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  lock : Mutex.t;
  frame : Wire.frame; (* responses are read into it under [lock] *)
  mutable closed : bool;
  (* Agreement ids by exchange schema value and depth. Structural
     equality: a re-parsed or re-built schema equal to a cached one
     reuses its agreement instead of leaking a new id per send. *)
  mutable agreements : (Axml_schema.Schema.t * int * int) list;
}

let connect ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd;
    lock = Mutex.create (); frame = Wire.frame (); closed = false; agreements = [] }

(* Under the lock. *)
let shut t =
  t.closed <- true;
  (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (try Unix.close t.fd with Unix.Unix_error _ -> ())

let close t =
  Mutex.lock t.lock;
  if not t.closed then shut t;
  Mutex.unlock t.lock

(* A failure inside a frame leaves the stream at an unknown offset, so
   the connection is shut: a later rpc must not read the rest of a torn
   frame as its answer. *)
let broken t fmt =
  shut t;
  fail fmt

let round_trip t req =
  if t.closed then fail "connection is closed";
  match
    Wire.write_request t.oc req;
    Wire.read t.frame t.ic
  with
  | true ->
    (match Wire.response_of_frame t.frame with
     | resp -> resp
     | exception Wire.Wire_error m -> broken t "wire error: %s" m)
  | false -> broken t "server closed the connection"
  | exception Wire.Wire_error m -> broken t "wire error: %s" m
  | exception Sys_error m -> broken t "transport error: %s" m

(* Locked and unlocked by hand, with no closure, as [Registry.invoke]
   does. *)
let rpc t req =
  Mutex.lock t.lock;
  match round_trip t req with
  | resp ->
    Mutex.unlock t.lock;
    resp
  | exception e ->
    Mutex.unlock t.lock;
    raise e

let ping t =
  match rpc t Wire.Ping with
  | Wire.Pong { peer; protocol } -> (peer, protocol)
  | Wire.Error { code; reason } -> fail "ping refused (%s): %s" code reason
  | r -> fail "unexpected ping response: %a" Wire.pp_response r

let forget_agreement t id =
  Mutex.lock t.lock;
  t.agreements <- List.filter (fun (_, _, i) -> i <> id) t.agreements;
  Mutex.unlock t.lock

(* The id cached for a schema [eq] to [exchange] at depth [k], or -1
   (ids are positive). *)
let rec cached eq ~k exchange = function
  | [] -> -1
  | (s, sk, id) :: rest ->
    if sk = k && eq s exchange then id else cached eq ~k exchange rest

(* The agreement id for an exchange schema value at depth [k], opening
   it on first use. The same schema value is found by physical
   equality; an equal one (re-parsed, say) by the structural fallback.
   The list is read and extended under the lock, in small critical
   sections of their own, never across the rpc. *)
let agreement t ~k exchange =
  Mutex.lock t.lock;
  let id = cached ( == ) ~k exchange t.agreements in
  let id = if id >= 0 then id else cached ( = ) ~k exchange t.agreements in
  Mutex.unlock t.lock;
  if id >= 0 then id
  else
    let schema_xml = Axml_peer.Xml_schema_int.to_string exchange in
    match rpc t (Wire.Open_exchange { schema_xml; k }) with
    | Wire.Exchange_opened { id; k = _ } ->
      Mutex.lock t.lock;
      t.agreements <- (exchange, k, id) :: t.agreements;
      Mutex.unlock t.lock;
      id
    | Wire.Error { code; reason } -> fail "open-exchange refused (%s): %s" code reason
    | r -> fail "unexpected open-exchange response: %a" Wire.pp_response r

(* Reconstruct the failure values [Peer.receive] reports in-process, so
   verdicts compare equal across transports. *)
let failures_of_refusals refusals =
  List.map
    (fun { Wire.at; context } ->
       { Rewriter.at; reason = Rewriter.Not_instance { detail = context } })
    refusals

let send t ~sender ~exchange ~as_name doc :
    (Peer.exchange_outcome, Enforcement.error) result =
  match Enforcement.Pipeline.enforce (Peer.exchange_pipeline sender ~exchange) doc with
  | Error e -> Error e
  | Ok (doc', report) ->
    let wire = Syntax.to_xml_string ~pretty:false doc' in
    let k = (Peer.current_config sender).Peer.k in
    let id = agreement t ~k exchange in
    let resp = rpc t (Wire.Exchange { exchange = id; as_name; doc_xml = wire }) in
    let resp =
      match resp with
      | Wire.Error { code = "unknown-exchange"; _ } ->
        (* The server restarted (or dropped its agreements) since we
           opened ours; forget the stale id, re-open once, retry once. *)
        forget_agreement t id;
        let id = agreement t ~k exchange in
        rpc t (Wire.Exchange { exchange = id; as_name; doc_xml = wire })
      | r -> r
    in
    (match resp with
     | Wire.Accepted { wire_bytes; _ } -> Ok { Peer.sent = doc'; report; wire_bytes }
     | Wire.Refused { refusals } ->
       Error (Enforcement.Rejected (failures_of_refusals refusals))
     | Wire.Error { code; reason } -> fail "exchange refused (%s): %s" code reason
     | r -> fail "unexpected exchange response: %a" Wire.pp_response r)

let invoke_envelope t envelope =
  match rpc t (Wire.Invoke { envelope }) with
  | Wire.Envelope { envelope } -> envelope
  | Wire.Error { code; reason } -> fail "invoke refused (%s): %s" code reason
  | r -> fail "unexpected invoke response: %a" Wire.pp_response r

let call t method_name params =
  let envelope = Soap.encode (Soap.Request { method_name; params }) in
  match Soap.decode (invoke_envelope t envelope) with
  | Soap.Response { result; _ } -> result
  | Soap.Fault { reason; _ } ->
    raise (Peer.Peer_error (Fmt.str "remote fault: %s" reason))
  | Soap.Request _ -> raise (Peer.Peer_error "protocol violation")

let import_services t ~into =
  let names =
    match rpc t Wire.List_services with
    | Wire.Names { names } -> names
    | Wire.Error { code; reason } -> fail "list-services refused (%s): %s" code reason
    | r -> fail "unexpected list-services response: %a" Wire.pp_response r
  in
  List.iter
    (fun name ->
       let wsdl =
         match rpc t (Wire.Get_wsdl { service = name }) with
         | Wire.Wsdl { wsdl } -> wsdl
         | Wire.Error { code; reason } -> fail "wsdl %s refused (%s): %s" name code reason
         | r -> fail "unexpected wsdl response: %a" Wire.pp_response r
       in
       let ((func, _) as declaration) =
         Axml_peer.Wsdl.parse_string ~service:name wsdl
       in
       let service =
         Axml_services.Service.make
           ~endpoint:(Option.value func.Axml_schema.Schema.f_endpoint
                        ~default:"axml://remote")
           ~namespace:(Option.value func.Axml_schema.Schema.f_namespace
                         ~default:"urn:axml:peer")
           ~input:func.Axml_schema.Schema.f_input
           ~output:func.Axml_schema.Schema.f_output name
           (fun params -> call t name params)
       in
       Peer.register_remote into ~service ~declaration)
    names;
  names

(* One-shot HTTP request (its own connection; the server closes after
   responding). *)
let http ?(host = "127.0.0.1") ~port ~meth ~path ?(body = "") () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  Printf.fprintf oc "%s %s HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\n\r\n%s"
    (String.uppercase_ascii meth) path host (String.length body) body;
  flush oc;
  let status_line = try input_line ic with End_of_file -> fail "empty response" in
  let status =
    match String.split_on_char ' ' (String.trim status_line) with
    | _ :: code :: _ ->
      (match int_of_string_opt code with
       | Some c -> c
       | None -> fail "malformed status line %S" status_line)
    | _ -> fail "malformed status line %S" status_line
  in
  (* Skip headers, then read the body to EOF (Connection: close). *)
  (try
     while String.trim (input_line ic) <> "" do () done
   with End_of_file -> ());
  let buf = Buffer.create 1024 in
  (try
     while true do Buffer.add_channel buf ic 1 done
   with End_of_file -> ());
  (status, Buffer.contents buf)
