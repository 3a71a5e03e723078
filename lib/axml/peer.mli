(** An ActiveXML peer (Section 7): a repository of intensional
    documents, a set of provided Web services defined declaratively over
    the repository, a registry of remote services it can call, and the
    Schema Enforcement module on every communication path.

    Peers talk through the SOAP wire format of {!Soap} even in-process,
    so every exchange exercises the full serialize / parse / validate
    path. *)

exception Peer_error of string

type query =
  | Const of Axml_core.Document.forest
  | Repository_doc of string
  | Repository_path of { doc : string; path : string }
  | Compute of (Axml_core.Document.forest -> Axml_core.Document.forest)

type t

val create : name:string -> schema:Axml_schema.Schema.t -> unit -> t

val name : t -> string
val schema : t -> Axml_schema.Schema.t
val registry : t -> Axml_services.Registry.t

(** {1 Configuration}

    All the peer's tunables live in one {!config} record — the
    enforcement configuration itself, {!Enforcement.config} — applied
    atomically by {!configure}; any change invalidates every compiled
    enforcement artifact of the peer. The record is shared with the
    network endpoint ([Axml_net.Endpoint]), so an in-process peer and a
    served one are configured identically. *)

type config = Enforcement.config = {
  k : int;                 (** maximum rewriting depth (Definition 7) *)
  fallback_possible : bool;
      (** attempt a possible rewriting when no safe one exists *)
  resilience : Axml_services.Resilience.t option;
      (** retry/timeout/circuit-breaker guard around every invocation *)
}

val default_config : config
(** {!Enforcement.default_config}: [k = 1], no fallback, no
    resilience guard. *)

val configure : t -> config -> unit
(** Replace the peer's configuration and invalidate every compiled
    pipeline; a call that starts after it returns runs on the new one. *)

val current_config : t -> config

val exchange_pipeline :
  t -> exchange:Axml_schema.Schema.t -> Enforcement.Pipeline.t
(** The peer's pipeline for an exchange schema, which {!send} enforces
    through and {!receive} validates against: compiled on first use and
    cached while the peer's schema, enforcement config and the
    [exchange] schema value all stay unchanged (so its contract's win
    tables and counters persist across {!send}s of the same agreement).
    Its {!Enforcement.Pipeline.config} is the peer's {!current_config}. *)

(** {1 Repository}

    The repository may be used from several threads at once: a served
    peer receives on one thread per connection. *)

val store : t -> string -> Axml_core.Document.t -> unit
val fetch : t -> string -> Axml_core.Document.t
(** @raise Peer_error on unknown names. *)

val documents : t -> string list

val select : t -> doc:string -> path:string -> Axml_core.Document.forest
(** Path query over a repository document (through its XML view, so
    intensional nodes traverse as <int:fun> elements). *)

(** {1 Provided services} *)

val provide :
  t -> ?cost:float -> name:string -> input:Axml_schema.Schema.content ->
  output:Axml_schema.Schema.content -> query -> unit
(** Declare a service; it becomes part of the peer's schema (its WSDL). *)

val provided_names : t -> string list

val serve : t -> method_name:string -> Axml_core.Document.forest ->
  Axml_core.Document.forest
(** Serve one call locally, running the enforcement module on both the
    parameters and the result (the "three steps", Section 7), each
    through its own cached pipeline: the peer's {!config} applies to
    served calls, with the peer's registry as invoker. A forest that
    already conforms comes back physically unchanged, without any
    invocation.
    @raise Peer_error when a direction is refused, with the
    {!Enforcement.pp_error} text. *)

val provided_service : t -> string -> Axml_services.Service.t option
(** A provided service as a {!Axml_services.Service.t} whose behaviour
    is {!serve} — the view WSDL description and networked invocation
    need. *)

val handle_wire : t -> string -> string
(** The peer's SOAP endpoint: request envelope in, response or fault
    envelope out. A request in an unsupported protocol version answers
    with a ["VersionMismatch"] fault; a malformed envelope with a
    ["Client"] fault — the handler never raises on bad input. *)

(** {1 Connecting peers} *)

val connect : t -> provider:t -> unit
(** Make every service provided by [provider] callable from the peer
    (through SOAP), importing the provider's WSDL declarations into the
    peer's schema. *)

val register_remote :
  t -> service:Axml_services.Service.t ->
  declaration:(Axml_schema.Schema.func * Axml_schema.Schema.t) -> unit
(** The wire-level counterpart of {!connect} for one service: register
    [service] (typically a networked proxy) in the peer's registry and
    import its parsed WSDL [declaration] (see {!Wsdl.parse_string}) into
    the peer's schema.
    @raise Wsdl.Wsdl_error on a signature conflict. *)

(** {1 Document exchange} *)

type exchange_outcome = {
  sent : Axml_core.Document.t;           (** what went on the wire *)
  report : Enforcement.report;
  wire_bytes : int;
}

val send :
  t -> receiver:t -> exchange:Axml_schema.Schema.t -> as_name:string ->
  Axml_core.Document.t -> (exchange_outcome, Enforcement.error) result
(** Sender-side enforcement, wire crossing in XML, receiver-side
    validation, then storage under [as_name] in the receiver's
    repository. *)

val receive :
  t -> exchange:Axml_schema.Schema.t -> as_name:string -> string ->
  (Axml_core.Document.t, Enforcement.error) result
(** The receiver-side half of {!send}, also what a network endpoint runs
    on an inbound exchange: parse the XML wire bytes, validate against
    the [exchange] schema (never trust the sender), and store the
    document under [as_name]. Returns the stored document; a malformed
    or non-conforming payload is an [Error (Rejected _)] carrying one
    failure per violation. *)
