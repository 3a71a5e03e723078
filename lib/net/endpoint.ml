(* The transport-agnostic endpoint: Wire.request -> Wire.response over a
   peer. All transports (in-process, framed socket, HTTP, CLI) funnel
   through [handle], so served and in-process peers give byte-identical
   answers. *)

module Peer = Axml_peer.Peer
module Schema = Axml_schema.Schema
module Json = Axml_obs.Json
module Metrics = Axml_obs.Metrics

type t = {
  peer : Peer.t;
  repo : Repo.t option;
  exchanges : (int, Schema.t) Hashtbl.t;
  lock : Mutex.t;
  mutable next_id : int;
}

(* One requests counter per operation, shared across endpoints: a slot
   per [Wire.request] constructor, filled on the operation's first
   request (under the lock, so it is registered once) and read without
   a lock after that. *)
let request_slot : Wire.request -> int = function
  | Ping -> 0
  | Open_exchange _ -> 1
  | Exchange _ -> 2
  | Invoke _ -> 3
  | Get_wsdl _ -> 4
  | List_services -> 5
  | Get_document _ -> 6
  | Get_metrics _ -> 7

let m_requests : Metrics.counter option Atomic.t array = Array.init 8 (fun _ -> Atomic.make None)
let m_requests_lock = Mutex.create ()

let count_request req =
  let slot = m_requests.(request_slot req) in
  match Atomic.get slot with
  | Some c -> Metrics.inc c
  | None ->
    Mutex.lock m_requests_lock;
    let c =
      match Atomic.get slot with
      | Some c -> c
      | None ->
        let c =
          Metrics.counter ~help:"Endpoint requests served, by operation"
            ~labels:[ ("op", Wire.request_op req) ] "axml_net_requests_total"
        in
        Atomic.set slot (Some c);
        c
    in
    Mutex.unlock m_requests_lock;
    Metrics.inc c

let create ?repo peer =
  { peer; repo; exchanges = Hashtbl.create 8; lock = Mutex.create ();
    next_id = 1 }

let peer t = t.peer

let open_exchanges t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.exchanges in
  Mutex.unlock t.lock;
  n

let exchange_schema t id =
  Mutex.lock t.lock;
  let schema = Hashtbl.find_opt t.exchanges id in
  Mutex.unlock t.lock;
  schema

(* Drop every open agreement, as a restarted server would. Clients must
   re-open; [Client] recovers from the resulting "unknown-exchange". *)
let reset_exchanges t =
  Mutex.lock t.lock;
  Hashtbl.reset t.exchanges;
  Mutex.unlock t.lock

let err code fmt = Fmt.kstr (fun reason -> Wire.Error { code; reason }) fmt

(* [Peer.receive] reports every violation as [Not_instance], which
   prints as its bare text; the client rebuilds the same failure value
   from that text (byte-equal verdicts across transports). *)
let refusals_of_failures failures =
  List.map
    (fun (f : Axml_core.Rewriter.failure) ->
       { Wire.at = f.at; context = Fmt.str "%a" Axml_core.Rewriter.pp_reason f.reason })
    failures

let dispatch t : Wire.request -> Wire.response = function
  | Ping -> Pong { peer = Peer.name t.peer; protocol = Wire.protocol_version }
  | Open_exchange { schema_xml; k } ->
    let mine = (Peer.current_config t.peer).k in
    if k <> mine then
      err "k-mismatch"
        "sender enforces at k=%d but this peer enforces at k=%d" k mine
    else
      (match Axml_peer.Xml_schema_int.of_string schema_xml with
       | exception Axml_peer.Xml_schema_int.Schema_syntax_error m ->
         err "protocol" "malformed exchange schema: %s" m
       | schema ->
         Mutex.lock t.lock;
         let id = t.next_id in
         t.next_id <- id + 1;
         Hashtbl.replace t.exchanges id schema;
         Mutex.unlock t.lock;
         Exchange_opened { id; k })
  | Exchange { exchange; as_name; doc_xml } ->
    (match exchange_schema t exchange with
     | None -> err "unknown-exchange" "no open exchange agreement #%d" exchange
     | Some schema ->
       (match Peer.receive t.peer ~exchange:schema ~as_name doc_xml with
        | Ok doc ->
          (match t.repo with
           | Some repo -> Repo.record_store repo as_name doc
           | None -> ());
          Accepted { as_name; wire_bytes = String.length doc_xml }
        | Error (Axml_peer.Enforcement.Rejected failures) ->
          Refused { refusals = refusals_of_failures failures }
        | Error e -> err "fault" "%a" Axml_peer.Enforcement.pp_error e))
  | Invoke { envelope } -> Envelope { envelope = Peer.handle_wire t.peer envelope }
  | Get_wsdl { service } ->
    (match Peer.provided_service t.peer service with
     | None -> err "unknown-service" "peer %s provides no service %S"
                 (Peer.name t.peer) service
     | Some s ->
       (match Axml_peer.Wsdl.describe_string ~types:(Peer.schema t.peer) s with
        | wsdl -> Wsdl { wsdl }
        | exception Axml_peer.Wsdl.Wsdl_error m -> err "fault" "%s" m))
  | List_services -> Names { names = Peer.provided_names t.peer }
  | Get_document { name } ->
    (match Peer.fetch t.peer name with
     | doc -> Document { doc_xml = Axml_peer.Syntax.to_xml_string ~pretty:false doc }
     | exception Peer.Peer_error _ ->
       err "unknown-document" "peer %s stores no document %S"
         (Peer.name t.peer) name)
  | Get_metrics { format } ->
    let body =
      match format with
      | Wire.Prometheus -> Metrics.to_prometheus Metrics.default
      | Wire.Json -> Json.to_string (Metrics.to_json Metrics.default)
    in
    Metrics { format; body }

let handle t req =
  count_request req;
  match dispatch t req with
  | resp -> resp
  | exception e -> err "fault" "%s" (Printexc.to_string e)
