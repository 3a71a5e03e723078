(** A threaded socket server for an {!Endpoint.t}: one listener speaking
    both the framed binary protocol (connections starting with
    {!Wire.magic}) and minimal HTTP/1.1 (everything else), told apart by
    peeking the first bytes.

    Resource bounds are explicit: a cap on concurrent connections, an
    admission-control cap on requests in flight {e before} any
    enforcement pipeline runs (excess answered with an ["overloaded"]
    error, never queued), a per-connection budget of {!error_budget}
    protocol errors, {!Wire.max_frame_bytes} per request payload in
    both protocols, and on an HTTP connection a receive timeout of
    {!http_read_timeout_s}. {!stop} drains gracefully: stop accepting, let
    in-flight requests finish (up to 5 s), unblock idle readers, join
    every connection thread. *)

type config = {
  max_connections : int;
      (** concurrent connections; excess are refused at accept *)
  max_in_flight : int;
      (** requests being served at once across all connections — the
          backpressure bound in front of {!Axml_peer.Enforcement.Pipeline} *)
}

val default_config : config
(** 64 connections, 32 in flight. *)

val error_budget : int
(** Undecodable-but-framed requests tolerated per connection before it
    is closed: 8. *)

val http_read_timeout_s : float
(** 3 s: once a connection is known to speak HTTP, the longest wait for
    its next bytes. A request whose head and body stall longer is
    closed, so a stalled client cannot hold a connection slot for ever.
    The timeout bounds each wait, not the whole request: a client that
    trickles a byte within every interval still holds its slot. Framed
    connections have no timeout, since a client may keep one idle
    between exchanges. A socket that never sends its first byte is not
    known to speak either protocol and waits without a bound. *)

type t

val start : ?config:config -> ?host:string -> ?port:int -> Endpoint.t -> t
(** Bind (default [127.0.0.1], port [0] = ephemeral), listen, and serve
    on background threads until {!stop}.
    @raise Unix.Unix_error when the address cannot be bound. *)

val port : t -> int
(** The bound port (useful with [port:0]). *)

val endpoint : t -> Endpoint.t

val connections : t -> int
(** Connections currently open. *)

val in_flight : t -> int
(** Requests currently being served. *)

val stop : t -> unit
(** Graceful shutdown; idempotent. Returns once every connection thread
    has been joined — no threads or fds outlive it. *)

(** {1 HTTP routes}

    - [GET /metrics] — Prometheus text for the default registry
    - [GET /metrics.json] — the same registry as JSON
    - [GET /health] — ["ok"], 200
    - [POST /exchange?as=NAME] — body is one intensional document in XML;
      it is validated against the {e server peer's own schema} and stored
      under [NAME] (default ["inbox"]). [200] on accept, [422] with one
      violation per line on refusal, [503] when overloaded. *)
