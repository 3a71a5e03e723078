(** The transport-agnostic peer endpoint: one handler mapping
    {!Wire.request}s to {!Wire.response}s over an {!Axml_peer.Peer.t}.

    The same [handle] backs every transport — in-process calls, the
    framed socket protocol and the HTTP front of {!Server}, and the
    CLI. It never raises on bad input:
    protocol-level problems come back as [Wire.Error] responses with
    stable codes. *)

type t

val create : ?repo:Repo.t -> Axml_peer.Peer.t -> t
(** Wrap a peer, configured as it is ({!Axml_peer.Peer.configure}).
    [repo] journals every accepted exchange ({!Repo.record_store}). *)

val peer : t -> Axml_peer.Peer.t

val handle : t -> Wire.request -> Wire.response
(** Serve one request, counted in [axml_net_requests_total] under its
    {!Wire.request_op}. Documents accepted through [Exchange] are stored
    in the peer's repository (and journaled when a {!Repo.t} is
    attached). Never raises. *)

val open_exchanges : t -> int
(** Agreements currently opened (monotonic ids handed out by
    [Open_exchange] and still resolvable). *)

val exchange_schema : t -> int -> Axml_schema.Schema.t option
(** The schema value agreement [id] was opened with, which keys the
    peer's {!Axml_peer.Peer.exchange_pipeline} for it; [None] for an id
    not open. *)

val reset_exchanges : t -> unit
(** Forget every open agreement, as a restarted server would. Subsequent
    [Exchange] requests under an old id answer ["unknown-exchange"];
    {!Client} transparently re-opens its agreement once and retries. *)
