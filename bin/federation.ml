(* The three-peer federation demo behind `axml federation`: real sockets
   on loopback, and every cross-peer hop over the wire.

     timeout.com (C)  hosts the services: Get_Temp, TimeOut, Get_Date
     reader (B)       enforces the exchange schema on everything it
                      receives; persists its repository via Repo
     newspaper.com (A) imports C's services from their WSDL over the
                      wire, enforces outgoing documents against B's
                      exchange schema, and ships them to B

   The demo asserts, not just prints: networked outcomes must equal the
   in-process ones byte for byte (an identical twin federation runs
   entirely in-process as the reference), the server must survive a
   killed client and a slow-service brownout, the repository must
   recover after the server goes away, and no fds may leak.

   The whole federation runs at one rewriting depth k, agreed on the
   wire when the exchange opens. TimeOut's exhibits embed Get_Date
   calls one level down, so the document stream is only shippable at
   k >= 2 — at k = 1 both transports must refuse identically, and a
   depth-mismatched agreement must be turned away before any document
   flows. *)

module R = Axml_regex.Regex
module Schema = Axml_schema.Schema
module Schema_parser = Axml_schema.Schema_parser
module D = Axml_core.Document
module Rewriter = Axml_core.Rewriter
module Service = Axml_services.Service
module Peer = Axml_peer.Peer
module Enforcement = Axml_peer.Enforcement
module Syntax = Axml_peer.Syntax
module Wire = Axml_net.Wire
module Endpoint = Axml_net.Endpoint
module Server = Axml_net.Server
module Client = Axml_net.Client
module Repo = Axml_net.Repo

exception Demo_failed of string

let failf fmt = Fmt.kstr (fun m -> raise (Demo_failed m)) fmt

let say quiet fmt =
  if quiet then Format.ifprintf Fmt.stdout (fmt ^^ "@.")
  else Fmt.pr (fmt ^^ "@.")

let parse_schema text =
  match Schema_parser.parse_result text with
  | Ok s -> s
  | Error e -> failf "demo schema: %s" e

(* ------------------------------------------------------------------ *)
(* Schemas (the paper's newspaper example, Fig. 1/2)                   *)
(* ------------------------------------------------------------------ *)

let common = {|
element title = #data
element date = #data
element temp = #data
element city = #data
element exhibit = title.(Get_Date | date)
element performance = title.date
function Get_Temp : city -> temp
function TimeOut : #data -> (exhibit | performance)*
function Get_Date : title -> date
|}

(* A's local schema: temperature and exhibits may still be calls, and an
   exhibit may itself embed a Get_Date call (intensional one level
   deeper — the depth the k bound governs). *)
let schema_sender =
  parse_schema
    ({|
root newspaper
element newspaper = title.date.(Get_Temp | temp).(TimeOut | exhibit*)
|} ^ common)

(* The agreed exchange schema: fully extensional, down to the exhibits.
   TimeOut's exhibits still embed Get_Date calls, so only a sender
   rewriting at k >= 2 can honour this agreement. *)
let schema_exchange = parse_schema {|
root newspaper
element newspaper = title.date.temp.exhibit*
element title = #data
element date = #data
element temp = #data
element city = #data
element exhibit = title.date
element performance = title.date
|}

(* C's schema: its exhibits are intensional (they embed Get_Date), so
   TimeOut's WSDL_int descriptor carries the Get_Date declaration along
   with the element types. Every provided signature itself stays over
   element types. *)
let schema_provider = parse_schema {|
root listing
element listing = exhibit*
element title = #data
element date = #data
element temp = #data
element city = #data
element exhibit = title.(Get_Date | date)
element performance = title.date
function Get_Date : title -> date
|}

let fig2a title =
  D.elem "newspaper"
    [ D.elem "title" [ D.data title ];
      D.elem "date" [ D.data "04/10/2002" ];
      D.call "Get_Temp" [ D.elem "city" [ D.data "Paris" ] ];
      D.call "TimeOut" [ D.data "exhibits" ] ]

(* ------------------------------------------------------------------ *)
(* Peers                                                               *)
(* ------------------------------------------------------------------ *)

(* C's deterministic service behaviours — determinism is what makes the
   networked/in-process parity check exact. [slow_started] flags the
   brownout probe: it flips when the slow call is being served. *)
let provide_services ?(slow_started = Atomic.make false) peer =
  Peer.provide peer ~name:"Get_Temp" ~input:(R.sym (Schema.A_label "city"))
    ~output:(R.sym (Schema.A_label "temp"))
    (Peer.Const [ D.elem "temp" [ D.data "15" ] ]);
  (* TimeOut answers with an exhibit that still embeds a Get_Date call:
     perfectly legal under C's (and A's) intensional exhibit type, but
     one rewriting level short of the extensional exchange schema. *)
  Peer.provide peer ~name:"TimeOut" ~input:(R.sym Schema.A_data)
    ~output:
      (R.star
         (R.alt (R.sym (Schema.A_label "exhibit"))
            (R.sym (Schema.A_label "performance"))))
    (Peer.Const
       [ D.elem "exhibit"
           [ D.elem "title" [ D.data "Monet" ];
             D.call "Get_Date" [ D.elem "title" [ D.data "Monet" ] ] ] ]);
  Peer.provide peer ~name:"Get_Date" ~input:(R.sym (Schema.A_label "title"))
    ~output:(R.sym (Schema.A_label "date"))
    (Peer.Const [ D.elem "date" [ D.data "04/10/2002" ] ]);
  Peer.provide peer ~name:"Slow" ~input:(R.sym Schema.A_data)
    ~output:(R.sym Schema.A_data)
    (Peer.Compute
       (fun _ ->
         Atomic.set slow_started true;
         Thread.delay 0.3;
         [ D.data "slow" ]))

let open_fds () =
  match Sys.readdir "/proc/self/fd" with
  | entries -> Some (Array.length entries)
  | exception Sys_error _ -> None

(* A raw loopback connection for protocol-abuse probes. *)
let with_raw_socket port f =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd
        (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
      f fd)

(* ------------------------------------------------------------------ *)
(* The demo                                                            *)
(* ------------------------------------------------------------------ *)

let run ~docs ~dir ~quiet ~k () =
  let say fmt = say quiet fmt in
  let fds_before = open_fds () in

  (* --- the served federation ------------------------------------- *)
  let slow_started = Atomic.make false in
  let peer_c = Peer.create ~name:"timeout.com" ~schema:schema_provider () in
  provide_services ~slow_started peer_c;
  let server_c = Server.start (Endpoint.create peer_c) in

  (* The receiver enforces at the same depth [k] as the sender; the wire
     agreement ([Open_exchange]) proves it before any document flows. *)
  let receiver_config = { Peer.default_config with Peer.k } in
  let peer_b = Peer.create ~name:"reader" ~schema:schema_exchange () in
  Peer.configure peer_b receiver_config;
  let repo_b = Repo.attach ~dir peer_b in
  let server_b = Server.start (Endpoint.create ~repo:repo_b peer_b) in
  say "serving timeout.com on 127.0.0.1:%d, reader on 127.0.0.1:%d (k=%d)"
    (Server.port server_c) (Server.port server_b) k;

  (* TimeOut's output type [(exhibit | performance)*] does not guarantee
     the exchange's [exhibit*], so safe rewriting alone cannot ship
     fig2a: both senders run with the possible-rewriting fallback — the
     same config record, applied through [Peer.configure]. *)
  let sender_config =
    { Peer.default_config with Peer.fallback_possible = true; Peer.k }
  in
  let peer_a = Peer.create ~name:"newspaper.com" ~schema:schema_sender () in
  Peer.configure peer_a sender_config;
  let client_c = Client.connect ~port:(Server.port server_c) () in
  let client_b = Client.connect ~port:(Server.port server_b) () in

  (* --- the in-process reference twin ------------------------------ *)
  let twin_c = Peer.create ~name:"timeout.com" ~schema:schema_provider () in
  provide_services twin_c;
  let twin_b = Peer.create ~name:"reader" ~schema:schema_exchange () in
  Peer.configure twin_b receiver_config;
  let twin_a = Peer.create ~name:"newspaper.com" ~schema:schema_sender () in
  Peer.configure twin_a sender_config;
  Peer.connect twin_a ~provider:twin_c;

  let c_name, c_protocol = Client.ping client_c in
  let b_name, _ = Client.ping client_b in
  if (c_name, b_name) <> ("timeout.com", "reader") then
    failf "ping: unexpected peer names %s / %s" c_name b_name;
  say "pinged %s (wire protocol v%d) and %s" c_name c_protocol b_name;

  (* A learns C's services from their WSDL over the wire. *)
  let imported = Client.import_services client_c ~into:peer_a in
  say "imported from %s: %s" c_name (String.concat ", " imported);
  if not (List.mem "Get_Temp" imported && List.mem "TimeOut" imported) then
    failf "WSDL import missed a service (got: %s)" (String.concat ", " imported);

  (* A remote call through the SOAP envelope over the socket. *)
  (match Client.call client_c "Get_Temp" [ D.elem "city" [ D.data "Paris" ] ] with
   | [ D.Elem { label = "temp"; _ } ] -> say "called Get_Temp on %s over the wire" c_name
   | other -> failf "Get_Temp returned %s" (Fmt.str "%a" D.pp_forest other));

  (* --- the document stream: networked vs in-process parity --------
     Every fig2a needs TimeOut, whose exhibits embed Get_Date calls one
     level down: at k >= 2 the sender re-enforces the returned forest
     and every document must be accepted; at k = 1 the sender cannot
     reach the embedded call and the receiver must refuse — on both
     transports, with equal verdicts (no sender-pass/receiver-refuse
     disagreement between the networked and in-process paths). *)
  let accepted = ref 0 and refused = ref 0 in
  for i = 1 to docs do
    let doc = fig2a (Fmt.str "The Sun #%d" i) in
    let as_name = Fmt.str "front-page-%d" i in
    let net =
      Client.send client_b ~sender:peer_a ~exchange:schema_exchange ~as_name doc
    in
    let reference =
      Peer.send twin_a ~receiver:twin_b ~exchange:schema_exchange ~as_name doc
    in
    (match (net, reference) with
     | Ok n, Ok r ->
       if not (D.equal n.Peer.sent r.Peer.sent) then
         failf "doc %d: networked and in-process enforcement sent different \
                documents" i;
       if n.Peer.wire_bytes <> r.Peer.wire_bytes then
         failf "doc %d: wire sizes differ (%d vs %d)" i n.Peer.wire_bytes
           r.Peer.wire_bytes;
       incr accepted
     | Error en, Error er ->
       if en <> er then
         failf "doc %d: networked and in-process refusal verdicts differ" i;
       incr refused
     | Ok _, Error e ->
       failf "doc %d: networked exchange accepted what the in-process one \
              refused: %a" i Enforcement.pp_error e
     | Error e, Ok _ ->
       failf "doc %d: networked exchange refused what the in-process one \
              accepted: %a" i Enforcement.pp_error e)
  done;
  if k >= 2 && !refused > 0 then
    failf "%d document(s) refused at k=%d — the TimeOut re-enforcement gap is \
           back" !refused k;
  if k <= 1 && !accepted > 0 then
    failf "%d document(s) accepted at k=1 — an embedded Get_Date call slipped \
           through validation" !accepted;
  say "exchanged %d document(s) at k=%d (%d accepted, %d refused); networked \
       outcomes byte-identical to in-process ones"
    docs k !accepted !refused;

  (* A document the receiver must refuse: verdicts must also agree.
     Both verdicts are computed from the same agreement bytes — the
     XML the schema crosses the wire as — like two real peers parsing
     one agreement document. *)
  let bad = D.elem "newspaper" [ D.elem "title" [ D.data "liar" ] ] in
  let bad_xml = Syntax.to_xml_string ~pretty:false bad in
  let agreement_xml = Axml_peer.Xml_schema_int.to_string schema_exchange in
  let agreement = Axml_peer.Xml_schema_int.of_string agreement_xml in
  (* A sender configured at another depth must be turned away at the
     agreement, before any document flows. *)
  (match
     Client.rpc client_b
       (Wire.Open_exchange { schema_xml = agreement_xml; k = k + 1 })
   with
   | Wire.Error { code = "k-mismatch"; _ } ->
     say "agreement at k=%d refused by a k=%d receiver (code k-mismatch)"
       (k + 1) k
   | r -> failf "mismatched-depth agreement was not refused: %a" Wire.pp_response r);

  let net_verdict =
    match
      Client.rpc client_b (Wire.Open_exchange { schema_xml = agreement_xml; k })
    with
    | Wire.Exchange_opened { id; k = _ } ->
      (match
         Client.rpc client_b
           (Wire.Exchange { exchange = id; as_name = "bad"; doc_xml = bad_xml })
       with
       | Wire.Refused { refusals } ->
         Enforcement.Rejected
           (List.map
              (fun { Wire.at; context } ->
                { Rewriter.at;
                  reason = Rewriter.Not_instance { detail = context } })
              refusals)
       | r -> failf "bad document was not refused: %a" Wire.pp_response r)
    | r -> failf "open-exchange failed: %a" Wire.pp_response r
  in
  let ref_verdict =
    match Peer.receive twin_b ~exchange:agreement ~as_name:"bad" bad_xml with
    | Error e -> e
    | Ok _ -> failf "in-process receive accepted the bad document"
  in
  if net_verdict <> ref_verdict then
    failf "refusal verdicts differ:@.  net: %a@.  ref: %a" Enforcement.pp_error
      net_verdict Enforcement.pp_error ref_verdict;
  say "refusal verdicts identical across transports";

  (* --- the k=1 gap, reproduced in process -------------------------
     At k=1 the sender's own enforcement passes fig2a (TimeOut's answer
     conforms to its declared output type) yet the shipped document
     still embeds Get_Date — so a receiver honouring the extensional
     agreement must refuse it. k >= 2 closes the gap by re-enforcing
     TimeOut's answer against the remaining budget. *)
  let gap_config = { sender_config with Peer.k = 1 } in
  let gap_a = Peer.create ~name:"newspaper.com" ~schema:schema_sender () in
  Peer.configure gap_a gap_config;
  Peer.connect gap_a ~provider:twin_c;
  let gap_doc = fig2a "The Sun (k=1)" in
  (match
     Enforcement.Pipeline.enforce
       (Peer.exchange_pipeline gap_a ~exchange:schema_exchange) gap_doc
   with
   | Error e -> failf "k=1 sender enforcement refused fig2a: %a" Enforcement.pp_error e
   | Ok (sent, _) ->
     let gap_b = Peer.create ~name:"reader" ~schema:schema_exchange () in
     (match
        Peer.receive gap_b ~exchange:agreement ~as_name:"gap"
          (Syntax.to_xml_string ~pretty:false sent)
      with
      | Error (Enforcement.Rejected _) ->
        say "k=1 gap reproduced: sender enforcement passed, receiver refused \
             the embedded Get_Date (closed at k>=2)"
      | Ok _ ->
        failf "k=1: receiver accepted a document with an embedded call"
      | Error e -> failf "k=1 receive failed oddly: %a" Enforcement.pp_error e));

  (* --- resilience: a killed client must not hurt the server ------- *)
  with_raw_socket (Server.port server_b) (fun fd ->
      (* half a frame header, then vanish *)
      ignore (Unix.write_substring fd "AXF1\x00\x00" 0 6));
  with_raw_socket (Server.port server_b) (fun fd ->
      (* a well-framed but undecodable payload: answered, not fatal *)
      let junk = "\xff\xffgarbage" in
      let b = Buffer.create 16 in
      Buffer.add_string b Wire.magic;
      let n = String.length junk in
      List.iter
        (fun shift -> Buffer.add_char b (Char.chr ((n lsr shift) land 0xff)))
        [ 24; 16; 8; 0 ];
      Buffer.add_string b junk;
      ignore (Unix.write_substring fd (Buffer.contents b) 0 (Buffer.length b));
      let reply = Bytes.create 256 in
      ignore (Unix.read fd reply 0 256));
  (match Client.ping client_b with
   | "reader", _ -> say "server survived a killed client and a garbage frame"
   | _ -> failf "server unhealthy after protocol abuse");

  (* --- brownout: a slow service call must not block other work ---- *)
  let slow_result = ref None in
  let slow_thread =
    Thread.create
      (fun () ->
        let c = Client.connect ~port:(Server.port server_c) () in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () -> slow_result := Some (Client.call c "Slow" [ D.data "x" ])))
      ()
  in
  while not (Atomic.get slow_started) do Thread.yield () done;
  let pings = ref 0 in
  for _ = 1 to 5 do
    match Client.ping client_c with
    | "timeout.com", _ -> incr pings
    | _ -> failf "ping failed during brownout"
  done;
  if Option.is_some !slow_result then
    failf "slow call finished before the pings — brownout probe proves nothing";
  Thread.join slow_thread;
  (match !slow_result with
   | Some [ _ ] -> ()
   | _ -> failf "slow call did not complete");
  say "served %d ping(s) while a 300 ms service call was in flight" !pings;

  (* --- the HTTP front --------------------------------------------- *)
  let status, metrics =
    Client.http ~port:(Server.port server_b) ~meth:"GET" ~path:"/metrics" ()
  in
  if status <> 200 then failf "GET /metrics: HTTP %d" status;
  let contains hay needle =
    let h = String.length hay and n = String.length needle in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  if not (contains metrics "axml_net_requests_total") then
    failf "/metrics scrape is missing the endpoint counters";
  say "scraped /metrics over HTTP (%d bytes)" (String.length metrics);

  let extensional =
    Syntax.to_xml_string ~pretty:false
      (D.elem "newspaper"
         [ D.elem "title" [ D.data "posted" ];
           D.elem "date" [ D.data "04/10/2002" ];
           D.elem "temp" [ D.data "15" ] ])
  in
  let status, _ =
    Client.http ~port:(Server.port server_b) ~meth:"POST"
      ~path:"/exchange?as=posted" ~body:extensional ()
  in
  if status <> 200 then failf "POST /exchange: HTTP %d" status;
  (match Client.rpc client_b (Wire.Get_document { name = "posted" }) with
   | Wire.Document _ -> say "posted a document over HTTP and read it back"
   | r -> failf "posted document not stored: %a" Wire.pp_response r);

  (* --- shutdown, leak accounting, recovery ------------------------ *)
  Client.close client_b;
  Client.close client_c;
  Server.stop server_b;
  Server.stop server_c;
  Repo.close repo_b;
  say "drained both servers (connections: %d + %d, in flight: %d + %d)"
    (Server.connections server_b) (Server.connections server_c)
    (Server.in_flight server_b) (Server.in_flight server_c);
  if Server.connections server_b + Server.connections server_c <> 0 then
    failf "connections survived shutdown";

  (match (fds_before, open_fds ()) with
   | Some before, Some after when after > before ->
     failf "fd leak: %d open before, %d after" before after
   | Some before, Some after -> say "no fd leak (%d before, %d after)" before after
   | _ -> ());

  (* The repository must come back from disk into a fresh peer. *)
  let reborn = Peer.create ~name:"reader" ~schema:schema_exchange () in
  let repo2 = Repo.attach ~dir reborn in
  let expect = !accepted + 1 (* + the HTTP post *) in
  if Repo.recovered repo2 < expect then
    failf "recovery lost documents: %d recovered, %d expected"
      (Repo.recovered repo2) expect;
  if !accepted > 0 then begin
    let original = Peer.fetch peer_b "front-page-1" in
    let recovered_doc = Peer.fetch reborn "front-page-1" in
    if not (D.equal original recovered_doc) then
      failf "recovered document differs from the stored one"
  end;
  Repo.close repo2;
  say "repository recovered %d document(s) after restart" (Repo.recovered repo2);

  say "federation demo passed";
  0

let run ~docs ~dir ~quiet ~k () =
  match run ~docs ~dir ~quiet ~k () with
  | code -> code
  | exception Demo_failed m ->
    Fmt.epr "federation demo FAILED: %s@." m;
    1
