(** A client for a served peer: one socket speaking the framed binary
    protocol, with typed helpers mirroring the in-process peer API.

    {!send} runs the {e sender-side} enforcement pipeline locally (on
    the caller's own peer) and ships the enforced document; the server
    runs exactly the receiver-side half ({!Axml_peer.Peer.receive}), so
    a networked exchange and an in-process {!Axml_peer.Peer.send}
    produce identical outcomes — byte-identical wire documents and
    equal verdicts. *)

exception Net_error of string
(** Transport failure or a server [Error] response (the message carries
    the stable error code). *)

type t

val connect : ?host:string -> port:int -> unit -> t
(** @raise Unix.Unix_error when the peer is unreachable. *)

val close : t -> unit
(** Idempotent. *)

val rpc : t -> Wire.request -> Wire.response
(** One framed round-trip. Serialized behind a mutex: a client is safe
    to share between threads (requests interleave whole). The response
    is read into a buffer the client keeps, so a round trip allocates
    the response it returns and nothing else.
    @raise Net_error on a transport failure (not on [Error] responses —
    those are returned). A failure inside a frame (a torn or malformed
    response, the server closing, a failed write) also closes the
    client: later calls raise [Net_error "connection is closed"]. *)

val ping : t -> string * int
(** Remote peer name and protocol version.
    @raise Net_error on anything but a [Pong]. *)

val send :
  t -> sender:Axml_peer.Peer.t -> exchange:Axml_schema.Schema.t ->
  as_name:string -> Axml_core.Document.t ->
  (Axml_peer.Peer.exchange_outcome, Axml_peer.Enforcement.error) result
(** The networked counterpart of {!Axml_peer.Peer.send}: enforce on
    [sender], open (and cache) the exchange agreement for this [exchange]
    schema at the sender's configured depth [k] (the receiver refuses
    with ["k-mismatch"] unless it enforces at the same bound), ship the
    wire document, map the server's verdict back. Agreements are cached
    by structural schema equality; a stale agreement id (the server
    restarted and answered ["unknown-exchange"]) is re-opened once and
    the exchange retried once, transparently.
    @raise Net_error on transport or protocol errors. *)

val call : t -> string -> Axml_core.Document.forest -> Axml_core.Document.forest
(** Invoke a remote service through a SOAP envelope over the wire.
    @raise Axml_peer.Peer.Peer_error on a fault (same shape as an
    in-process proxy call). *)

val import_services : t -> into:Axml_peer.Peer.t -> string list
(** Fetch the server's service list and WSDL descriptors, and register a
    networked proxy for each into [into]
    ({!Axml_peer.Peer.register_remote}); intensional calls on [into]
    then invoke over this connection. Returns the imported names. *)

val http :
  ?host:string -> port:int -> meth:string -> path:string -> ?body:string ->
  unit -> int * string
(** One-shot HTTP request against a server's HTTP front (its own
    connection): status code and body. *)
