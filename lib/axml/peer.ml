(* An ActiveXML peer (Section 7): a repository of intensional documents,
   a set of provided Web services defined declaratively over the
   repository, a registry of remote services it can call, and the Schema
   Enforcement module on every communication path.

   Peers talk through the SOAP wire format of [Soap] even in-process, so
   every exchange exercises the full serialize / parse / validate path.

   Every path — sending, receiving and serving a call — runs on an
   [Enforcement.Pipeline], compiled on first use into one cache and
   tagged with a generation counter that is bumped whenever the peer's
   schema (or its enforcement config) changes: a peer under heavy
   traffic compiles each exchange contract once, not once per message. *)

module Schema = Axml_schema.Schema
module Document = Axml_core.Document
module Validate = Axml_core.Validate
module Rewriter = Axml_core.Rewriter
module Contract = Axml_core.Contract
module Pipeline = Enforcement.Pipeline
module Registry = Axml_services.Registry
module Service = Axml_services.Service
module Metrics = Axml_obs.Metrics
module Trace = Axml_obs.Trace

let m_sends result =
  Metrics.counter ~help:"Peer-to-peer document exchanges attempted"
    ~labels:[ ("result", result) ]
    "axml_peer_sends_total"

let m_sends_ok = m_sends "ok"
let m_sends_error = m_sends "error"

let m_serves result =
  Metrics.counter ~help:"Locally served calls (params+result enforced)"
    ~labels:[ ("result", result) ]
    "axml_peer_serves_total"

let m_serves_ok = m_serves "ok"
let m_serves_error = m_serves "error"

let h_wire_bytes =
  Metrics.histogram ~help:"Serialized size of exchanged documents in bytes"
    ~buckets:[ 256.; 1024.; 4096.; 16384.; 65536. ]
    "axml_peer_wire_bytes"

exception Peer_error of string

type query =
  | Const of Document.forest
  | Repository_doc of string
      (* return the named repository document *)
  | Repository_path of { doc : string; path : string }
      (* path query over a repository document *)
  | Compute of (Document.forest -> Document.forest)

type provided = {
  p_name : string;
  p_input : Schema.content;
  p_output : Schema.content;
  p_body : query;
  p_cost : float;
}

(* What a cached pipeline enforces: an exchange agreement, keyed by the
   schema value, or one direction of a provided service, keyed by its
   record (both compared physically). *)
type direction = Params | Result
type slot = Exchange of Schema.t | Serve of provided * direction

type entry = { slot : slot; generation : int; pipeline : Pipeline.t }

(* The peer's tunables are the enforcement config itself, applied
   through [configure]; re-exported so [Peer.k] etc. name its fields. *)
type config = Enforcement.config = {
  k : int;
  fallback_possible : bool;
  resilience : Axml_services.Resilience.t option;
}

let default_config = Enforcement.default_config

type t = {
  name : string;
  mutable schema : Schema.t;  (* the peer's own schema, incl. known WSDLs *)
  repository : (string, Document.t) Hashtbl.t;
  registry : Registry.t;      (* remote services this peer can invoke *)
  provided : (string, provided) Hashtbl.t;
  mutable config : config;
  mutable generation : int;
  pipelines : entry list Atomic.t;  (* the one compiled-artifact cache *)
  lock : Mutex.t;  (* held to build an entry, bump [generation] or use [repository] *)
}

let create ~name ~schema () = {
  name;
  schema;
  repository = Hashtbl.create 8;
  registry = Registry.create ~principal:name ();
  provided = Hashtbl.create 8;
  config = default_config;
  generation = 0;
  pipelines = Atomic.make [];
  lock = Mutex.create ();
}

let name t = t.name
let schema t = t.schema
let registry t = t.registry

(* Any change to the peer's schema or enforcement settings invalidates
   every compiled artifact: pipelines are built under [lock], so one
   built after the bump sees the change. *)
let invalidate t = Mutex.protect t.lock (fun () -> t.generation <- t.generation + 1)

let configure t config =
  t.config <- config;
  invalidate t

let current_config t = t.config

let set_schema t schema =
  t.schema <- schema;
  invalidate t

(* ------------------------------------------------------------------ *)
(* Repository                                                          *)
(* ------------------------------------------------------------------ *)

(* A served peer receives on one thread per connection, so every use of
   [repository] holds [lock]. [store] runs once per received document,
   so it locks by hand rather than allocate a [Mutex.protect] closure. *)
let store t name doc =
  Mutex.lock t.lock;
  match Hashtbl.replace t.repository name doc with
  | () -> Mutex.unlock t.lock
  | exception e ->
    Mutex.unlock t.lock;
    raise e

let fetch t name =
  match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.repository name) with
  | Some doc -> doc
  | None -> raise (Peer_error (Fmt.str "peer %s: no document named %S" t.name name))

let documents t =
  Mutex.protect t.lock (fun () -> Hashtbl.fold (fun name _ acc -> name :: acc) t.repository [])
  |> List.sort compare

(* Path queries over repository documents go through the XML view of the
   document, so intensional nodes traverse as ordinary <int:fun>
   elements. *)
let select t ~doc ~path : Document.forest =
  let xml = Syntax.to_xml (fetch t doc) in
  Axml_xml.Xml_path.select path xml
  |> Syntax.of_xml_forest Axml_xml.Xml_ns.empty_env

(* ------------------------------------------------------------------ *)
(* Provided services                                                   *)
(* ------------------------------------------------------------------ *)

let provide t ?(cost = 0.) ~name ~input ~output body =
  Hashtbl.replace t.provided name
    { p_name = name; p_input = input; p_output = output; p_body = body;
      p_cost = cost };
  invalidate t;
  (* the provided service becomes part of the peer's schema (its WSDL) *)
  match Schema.find_function t.schema name with
  | Some _ -> ()
  | None ->
    set_schema t
      (Schema.add_function t.schema
         (Schema.func name ~endpoint:("axml://" ^ t.name) ~input ~output))

let provided_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.provided [] |> List.sort compare

let eval_query t (q : query) (params : Document.forest) : Document.forest =
  match q with
  | Const forest -> forest
  | Repository_doc name -> [ fetch t name ]
  | Repository_path { doc; path } -> select t ~doc ~path
  | Compute f -> f params

(* ------------------------------------------------------------------ *)
(* The pipeline cache                                                  *)
(* ------------------------------------------------------------------ *)

(* Exchange entries are bounded, since every agreement opened over the
   network parses a fresh schema value; serve entries are bounded by
   the provided services. *)
let cache_bound = 8

(* The pipeline of an exchange schema, with no slot to look it up by
   and no option around the answer: the lookup of every send and
   receive allocates nothing. @raise Not_found on a miss. *)
let rec find_exchange exchange generation = function
  | [] -> raise Not_found
  | { slot = Exchange x; generation = g; pipeline } :: _ when x == exchange && g = generation ->
    pipeline
  | _ :: rest -> find_exchange exchange generation rest

(* @raise Not_found on a miss. *)
let rec find slot generation entries =
  match slot, entries with
  | Exchange x, _ -> find_exchange x generation entries
  | Serve _, [] -> raise Not_found
  | Serve (p, d), { slot = Serve (q, f); generation = g; pipeline } :: _
    when p == q && d == f && g = generation -> pipeline
  | Serve _, _ :: rest -> find slot generation rest

(* A direction of a served call is enforced against the peer's schema
   rooted at a wrapper element whose content is the direction's type. *)
let wrapper = function Params -> "#params" | Result -> "#result"
let what = function Params -> "parameters" | Result -> "result"

let compile t slot =
  let s0, exchange =
    match slot with
    | Exchange exchange -> (t.schema, exchange)
    | Serve (p, dir) ->
      let content = match dir with Params -> p.p_input | Result -> p.p_output in
      let s = Schema.add_element t.schema (wrapper dir) content in
      let s = Schema.with_root s (wrapper dir) in
      (s, s)
  in
  Pipeline.create ~config:t.config ~s0 ~exchange ~invoker:(Registry.invoker t.registry) ()

(* A hit reads the snapshot and takes no lock; a miss builds under the
   lock, once, however many threads missed together. *)
let pipeline t slot =
  match find slot t.generation (Atomic.get t.pipelines) with
  | p -> p
  | exception Not_found ->
    Mutex.protect t.lock (fun () ->
        let entries = Atomic.get t.pipelines in
        match find slot t.generation entries with
        | p -> p
        | exception Not_found ->
          let p = compile t slot in
          let exchanges = ref 0 in
          let live (e : entry) =
            e.generation = t.generation
            && (match e.slot with
                | Exchange _ -> incr exchanges; !exchanges < cache_bound
                | Serve _ -> true)
          in
          let entry = { slot; generation = t.generation; pipeline = p } in
          Atomic.set t.pipelines (entry :: List.filter live entries);
          p)

(* The enforcement pipeline for an exchange schema: compiled on first
   use, reused while neither the peer's schema nor the exchange schema
   object changes. The sender enforces through it; the receiver
   validates against its contract's context. *)
let exchange_pipeline t ~exchange =
  match find_exchange exchange t.generation (Atomic.get t.pipelines) with
  | p -> p
  | exception Not_found -> pipeline t (Exchange exchange)

(* ------------------------------------------------------------------ *)
(* Serving calls                                                       *)
(* ------------------------------------------------------------------ *)

(* Serve one call locally, running the Schema Enforcement module on both
   the parameters and the result (Section 7: "before an ActiveXML
   service returns its answer, the module performs the same three steps
   on the returned data"), each through its direction's pipeline under
   the peer's config. A conforming forest comes back physically
   unchanged. *)
let serve t ~method_name (params : Document.forest) : Document.forest =
  match Hashtbl.find_opt t.provided method_name with
  | None ->
    Metrics.inc m_serves_error;
    raise (Peer_error (Fmt.str "peer %s provides no service %S" t.name method_name))
  | Some p ->
    let enforce dir forest =
      let wrapped = Document.elem (wrapper dir) forest in
      match Pipeline.enforce (pipeline t (Serve (p, dir))) wrapped with
      | Ok (Document.Elem { children; _ }, _) -> children
      | Ok _ -> raise (Peer_error (what dir ^ " enforcement changed the wrapper"))
      | Error e ->
        raise
          (Peer_error
             (Fmt.str "peer %s: %s of %s %a" t.name (what dir) method_name
                Enforcement.pp_error e))
    in
    match
      Trace.with_span "peer.serve" ~detail:(fun () -> method_name) @@ fun () ->
      enforce Result (eval_query t p.p_body (enforce Params params))
    with
    | result ->
      Metrics.inc m_serves_ok;
      result
    | exception e ->
      Metrics.inc m_serves_error;
      raise e

(* A provided service as a [Service.t] whose behaviour is [serve] — the
   view WSDL description and networked invocation need. *)
let provided_service t name =
  match Hashtbl.find_opt t.provided name with
  | None -> None
  | Some p ->
    Some
      (Service.make
         ~endpoint:("axml://" ^ t.name)
         ~namespace:"urn:axml:peer" ~cost:p.p_cost ~input:p.p_input
         ~output:p.p_output p.p_name
         (fun params -> serve t ~method_name:name params))

(* The SOAP endpoint of the peer: a request envelope in, a response (or
   fault) envelope out. Never raises on bad input: malformed envelopes
   and unsupported protocol versions come back as faults, so a network
   server can pass arbitrary bytes through. *)
let handle_wire t (wire : string) : string =
  match Soap.decode wire with
  | exception Soap.Unsupported_version { got; supported } ->
    Soap.encode
      (Soap.Fault
         { code = "VersionMismatch";
           reason =
             Fmt.str "protocol version %d not supported (this peer speaks <= %d)"
               got supported })
  | exception Soap.Protocol_error m ->
    Soap.encode (Soap.Fault { code = "Client"; reason = m })
  | Soap.Request { method_name; params } ->
    (try Soap.encode (Soap.Response { method_name; result = serve t ~method_name params })
     with
     | Peer_error m -> Soap.encode (Soap.Fault { code = "Client"; reason = m })
     | e ->
       Soap.encode
         (Soap.Fault { code = "Server"; reason = Printexc.to_string e }))
  | Soap.Response _ | Soap.Fault _ ->
    Soap.encode (Soap.Fault { code = "Client"; reason = "expected a request" })

(* ------------------------------------------------------------------ *)
(* Connecting peers                                                    *)
(* ------------------------------------------------------------------ *)

(* Make every service provided by [provider] callable from [t]: the
   proxy serializes through SOAP so the exchange is a faithful
   simulation of the wire protocol. Also imports the provider's WSDL
   declarations (function signature + referenced element types) into
   [t]'s schema. *)
let connect t ~(provider : t) =
  Hashtbl.iter
    (fun name (p : provided) ->
      let behaviour params =
        let wire = Soap.encode (Soap.Request { method_name = name; params }) in
        match Soap.decode (handle_wire provider wire) with
        | Soap.Response { result; _ } -> result
        | Soap.Fault { reason; _ } ->
          raise (Peer_error (Fmt.str "remote fault from %s: %s" provider.name reason))
        | Soap.Request _ -> raise (Peer_error "protocol violation")
      in
      let service =
        Service.make
          ~endpoint:("axml://" ^ provider.name)
          ~namespace:"urn:axml:peer" ~cost:p.p_cost ~input:p.p_input
          ~output:p.p_output name behaviour
      in
      Registry.register t.registry service;
      (* import the WSDL declaration *)
      (match Schema.find_function t.schema name with
       | Some _ -> ()
       | None -> set_schema t (Schema.add_function t.schema (Service.declaration service))))
    provider.provided;
  (* element types used by the provider's signatures *)
  List.iter
    (fun l ->
      match Schema.find_element t.schema l, Schema.find_element provider.schema l with
      | None, Some c -> set_schema t (Schema.add_element t.schema l c)
      | Some _, _ | None, None -> ())
    (Schema.element_names provider.schema);
  invalidate t

(* The wire-level counterpart of [connect] for one service: a networked
   proxy plus its parsed WSDL declaration. *)
let register_remote t ~service ~declaration =
  Registry.register t.registry service;
  set_schema t (Wsdl.import t.schema declaration)

(* ------------------------------------------------------------------ *)
(* Document exchange                                                   *)
(* ------------------------------------------------------------------ *)

type exchange_outcome = {
  sent : Document.t;             (* what went on the wire *)
  report : Enforcement.report;   (* the sender-side enforcement report *)
  wire_bytes : int;
}

(* The receiver's verdict the long way, for a document the one pass of
   [receive] refused: decode without checking ([Syntax.of_xml_string],
   which leaves malformed bytes to the tree route and its message), and
   list every violation, in the order and words a refusal reports
   them. *)
let receive_slowly t ~ctx ~as_name (wire : string) : (Document.t, Enforcement.error) result =
  let rejected failures = Error (Enforcement.Rejected failures) in
  match Syntax.of_xml_string wire with
  | exception Syntax.Syntax_error m ->
    rejected
      [ { Rewriter.at = [];
          reason = Rewriter.Not_instance { detail = "malformed document: " ^ m } } ]
  | received ->
    (match Validate.document_violations ctx received with
     | [] ->
       store t as_name received;
       Ok received
     | violations ->
       rejected
         (List.map
            (fun v ->
              { Rewriter.at = v.Validate.at;
                reason =
                  Rewriter.Not_instance
                    { detail = Fmt.str "%a" Validate.pp_violation_kind v.Validate.kind } })
            violations))

(* The receiver-side half of an exchange — shared by [send] and the
   network endpoint: decode the XML wire bytes and validate them against
   the exchange schema (never trust the sender) in one pass, then store
   the document. At the first offence the pass stops and the refusal is
   rebuilt by [receive_slowly], so every verdict, message and stored
   document is the one parsing, decoding and validating in turn
   gives. *)
let receive t ~exchange ~as_name (wire : string) :
    (Document.t, Enforcement.error) result =
  let ctx = Contract.ctx (Pipeline.contract (exchange_pipeline t ~exchange)) in
  match Syntax.of_xml_string_checked ctx wire with
  | Some received ->
    store t as_name received;
    Ok received
  | None -> receive_slowly t ~ctx ~as_name wire

(* Send [doc] to [receiver] under the agreed [exchange] schema: the
   sender's enforcement module materializes what must be materialized,
   the document crosses the (simulated) wire in XML, and the receiver
   validates before storing it under [as_name]. Both sides reuse their
   cached pipeline for the agreement. *)
let send_steps t ~(receiver : t) ~exchange ~as_name doc =
  match Pipeline.enforce (exchange_pipeline t ~exchange) doc with
  | Error e -> Error e
  | Ok (doc', report) ->
    let wire = Syntax.to_xml_string ~pretty:false doc' in
    (match receive receiver ~exchange ~as_name wire with
     | Ok _ -> Ok { sent = doc'; report; wire_bytes = String.length wire }
     | Error e -> Error e)

let send t ~(receiver : t) ~exchange ~as_name doc :
    (exchange_outcome, Enforcement.error) result =
  (* the span and its closures exist only under a trace sink *)
  let outcome =
    if Trace.enabled Trace.default then
      Trace.with_span "peer.send"
        ~detail:(fun () -> Fmt.str "%s -> %s" t.name receiver.name)
        (fun () -> send_steps t ~receiver ~exchange ~as_name doc)
    else send_steps t ~receiver ~exchange ~as_name doc
  in
  (match outcome with
   | Ok { wire_bytes; _ } ->
     Metrics.inc m_sends_ok;
     Metrics.observe h_wire_bytes (float_of_int wire_bytes)
   | Error _ -> Metrics.inc m_sends_error);
  outcome
