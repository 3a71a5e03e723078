(* Tests for the networked peer (lib/net): wire codec round-trips,
   framing, the transport-agnostic endpoint, the socket server under
   concurrency and abuse, the persistent repository, and the HTTP
   front. *)

module R = Axml_regex.Regex
module Schema = Axml_schema.Schema
module Schema_parser = Axml_schema.Schema_parser
module D = Axml_core.Document
module Rewriter = Axml_core.Rewriter
module Service = Axml_services.Service
module Registry = Axml_services.Registry
module Oracle = Axml_services.Oracle
module Peer = Axml_peer.Peer
module Enforcement = Axml_peer.Enforcement
module Syntax = Axml_peer.Syntax
module Xml_schema_int = Axml_peer.Xml_schema_int
module Wire = Axml_net.Wire
module Endpoint = Axml_net.Endpoint
module Server = Axml_net.Server
module Client = Axml_net.Client
module Repo = Axml_net.Repo

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let parse_schema text =
  match Schema_parser.parse_result text with
  | Ok s -> s
  | Error e -> Alcotest.failf "schema parse error: %s" e

let common = {|
element title = #data
element date = #data
element temp = #data
element city = #data
element exhibit = title.date
|}

let schema_sender =
  parse_schema
    ({|
root newspaper
element newspaper = title.date.(Get_Temp | temp)
function Get_Temp : city -> temp
|} ^ common)

let schema_exchange_text =
  {|
root newspaper
element newspaper = title.date.temp
function Get_Temp : city -> temp
|}
  ^ common

let schema_exchange = parse_schema schema_exchange_text

let fig2a title =
  D.elem "newspaper"
    [ D.elem "title" [ D.data title ];
      D.elem "date" [ D.data "04/10/2002" ];
      D.call "Get_Temp" [ D.elem "city" [ D.data "Paris" ] ] ]

let register_get_temp peer =
  Registry.register (Peer.registry peer)
    (Service.make ~input:(R.sym (Schema.A_label "city"))
       ~output:(R.sym (Schema.A_label "temp")) "Get_Temp"
       (Oracle.constant [ D.elem "temp" [ D.data "15" ] ]))

let make_receiver () = Peer.create ~name:"reader" ~schema:schema_exchange ()

let make_sender () =
  let p = Peer.create ~name:"newspaper.com" ~schema:schema_sender () in
  register_get_temp p;
  p

let with_server ?config ?repo peer f =
  let server = Server.start ?config (Endpoint.create ?repo peer) in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)

let with_client server f =
  let client = Client.connect ~port:(Server.port server) () in
  Fun.protect ~finally:(fun () -> Client.close client) (fun () -> f client)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "axml-test-net-%d-%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; dir ])))
    (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Wire codec: property-tested round-trips                              *)
(* ------------------------------------------------------------------ *)

let gen_string = QCheck.Gen.(string_size ~gen:char (int_bound 64))

let gen_request : Wire.request QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [ return Wire.Ping;
      map2 (fun s k -> Wire.Open_exchange { schema_xml = s; k }) gen_string
        (int_bound 7);
      map3
        (fun exchange as_name doc_xml -> Wire.Exchange { exchange; as_name; doc_xml })
        (int_bound 0xffff) gen_string gen_string;
      map (fun s -> Wire.Invoke { envelope = s }) gen_string;
      map (fun s -> Wire.Get_wsdl { service = s }) gen_string;
      return Wire.List_services;
      map (fun s -> Wire.Get_document { name = s }) gen_string;
      map
        (fun b -> Wire.Get_metrics { format = (if b then Wire.Prometheus else Wire.Json) })
        bool ]

let gen_refusal : Wire.refusal QCheck.Gen.t =
  let open QCheck.Gen in
  map2
    (fun at context -> { Wire.at; context })
    (list_size (int_bound 6) (int_bound 0xffff))
    gen_string

let gen_response : Wire.response QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [ map2 (fun peer protocol -> Wire.Pong { peer; protocol }) gen_string
        (int_bound 0xff);
      map2 (fun id k -> Wire.Exchange_opened { id; k }) (int_bound 0xffff)
        (int_bound 7);
      map2 (fun as_name wire_bytes -> Wire.Accepted { as_name; wire_bytes })
        gen_string (int_bound 0xffffff);
      map (fun refusals -> Wire.Refused { refusals })
        (list_size (int_bound 5) gen_refusal);
      map (fun s -> Wire.Envelope { envelope = s }) gen_string;
      map (fun s -> Wire.Wsdl { wsdl = s }) gen_string;
      map (fun names -> Wire.Names { names }) (list_size (int_bound 8) gen_string);
      map (fun s -> Wire.Document { doc_xml = s }) gen_string;
      map2
        (fun b body ->
          Wire.Metrics
            { format = (if b then Wire.Prometheus else Wire.Json); body })
        bool gen_string;
      map2 (fun code reason -> Wire.Error { code; reason }) gen_string gen_string ]

let prop_request_roundtrip =
  QCheck.Test.make ~count:500 ~name:"wire: request decode ∘ encode = id"
    (QCheck.make ~print:(Fmt.str "%a" Wire.pp_request) gen_request)
    (fun req -> Wire.decode_request (Wire.encode_request req) = req)

let prop_response_roundtrip =
  QCheck.Test.make ~count:500 ~name:"wire: response decode ∘ encode = id"
    (QCheck.make ~print:(Fmt.str "%a" Wire.pp_response) gen_response)
    (fun resp -> Wire.decode_response (Wire.encode_response resp) = resp)

let test_wire_rejects_garbage () =
  (try
     ignore (Wire.decode_request "");
     Alcotest.fail "empty payload decoded"
   with Wire.Wire_error _ -> ());
  (try
     ignore (Wire.decode_request "\xfe");
     Alcotest.fail "unknown tag decoded"
   with Wire.Wire_error _ -> ());
  (* trailing garbage after a valid message must be rejected *)
  try
    ignore (Wire.decode_request (Wire.encode_request Wire.Ping ^ "x"));
    Alcotest.fail "trailing garbage accepted"
  with Wire.Wire_error _ -> ()

let be32 n = String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff))

let test_wire_framing () =
  let path = Filename.temp_file "axml" ".frames" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out_bin path in
  Wire.write oc Buffer.add_string "hello";
  Wire.write oc Buffer.add_string "";
  close_out oc;
  let ic = open_in_bin path in
  let fr = Wire.frame () in
  check "frame 1" true (Wire.read fr ic && Wire.payload fr = "hello");
  check "frame 2" true (Wire.read fr ic && Wire.payload fr = "");
  check "clean EOF" false (Wire.read fr ic);
  close_in ic;
  (* torn header *)
  let oc = open_out_bin path in
  output_string oc "AXF1\x00\x00";
  close_out oc;
  let ic = open_in_bin path in
  (try
     ignore (Wire.read fr ic);
     Alcotest.fail "torn header accepted"
   with Wire.Wire_error m -> check_string "torn header" "torn frame header (6 of 8 bytes)" m);
  close_in ic;
  (* bad magic *)
  let oc = open_out_bin path in
  output_string oc "HTTP/1.1 200\r\n";
  close_out oc;
  let ic = open_in_bin path in
  (try
     ignore (Wire.read fr ic);
     Alcotest.fail "bad magic accepted"
   with Wire.Wire_error m -> check_string "bad magic" "bad frame magic \"HTTP\"" m);
  close_in ic;
  (* declared length over the cap *)
  let oc = open_out_bin path in
  output_string oc (Wire.magic ^ be32 (Wire.max_frame_bytes + 1));
  close_out oc;
  let ic = open_in_bin path in
  (try
     ignore (Wire.read fr ic);
     Alcotest.fail "oversized frame accepted"
   with Wire.Wire_error m ->
     check_string "over the cap"
       (Fmt.str "frame of %d bytes exceeds the %d limit" (Wire.max_frame_bytes + 1)
          Wire.max_frame_bytes)
       m);
  close_in ic;
  (* torn payload *)
  let oc = open_out_bin path in
  output_string oc "AXF1\x00\x00\x00\x05abc";
  close_out oc;
  let ic = open_in_bin path in
  (try
     ignore (Wire.read fr ic);
     Alcotest.fail "torn payload accepted"
   with Wire.Wire_error m -> check_string "torn payload" "torn frame payload (3 of 5 bytes)" m);
  close_in ic

(* ------------------------------------------------------------------ *)
(* The frame writer and reader                                          *)
(* ------------------------------------------------------------------ *)

(* A frame as the protocol defines it: magic, big-endian length,
   payload. *)
let framed payload = Wire.magic ^ be32 (String.length payload) ^ payload

(* The bytes [write oc x] puts on a channel. *)
let written write x =
  let path = Filename.temp_file "axml" ".frame" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> write oc x);
  In_channel.with_open_bin path In_channel.input_all

(* [f] on a channel reading [bytes]. *)
let with_input bytes f =
  let path = Filename.temp_file "axml" ".frames" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
  In_channel.with_open_bin path f

let every_request =
  [ Wire.Ping; Wire.Open_exchange { schema_xml = "<schema/>"; k = 2 };
    Wire.Exchange { exchange = 7; as_name = "front"; doc_xml = "<newspaper/>" };
    Wire.Invoke { envelope = "<env/>" }; Wire.Get_wsdl { service = "Get_Temp" };
    Wire.List_services; Wire.Get_document { name = "front" };
    Wire.Get_metrics { format = Wire.Prometheus }; Wire.Get_metrics { format = Wire.Json } ]

let every_response =
  [ Wire.Pong { peer = "reader"; protocol = Wire.protocol_version };
    Wire.Exchange_opened { id = 1; k = 2 };
    Wire.Accepted { as_name = "front"; wire_bytes = 912 };
    Wire.Refused { refusals = [] };
    Wire.Refused { refusals = [ { Wire.at = [ 0; 3 ]; context = "temp expected" } ] };
    Wire.Envelope { envelope = "<env/>" }; Wire.Wsdl { wsdl = "<wsdl/>" };
    Wire.Names { names = [ "a"; ""; "b" ] }; Wire.Document { doc_xml = "<newspaper/>" };
    Wire.Metrics { format = Wire.Prometheus; body = "x 1\n" };
    Wire.Metrics { format = Wire.Json; body = "{}" };
    Wire.Error { code = "protocol"; reason = "why" } ]

(* The frame writer's bytes for [x], read back by the frame reader. *)
let writer_roundtrip ~write ~encode ~decode ~pp x =
  let name = Fmt.str "%a" pp x in
  let bytes = written write x in
  check_string (name ^ ": magic ^ length ^ encoding") (framed (encode x)) bytes;
  with_input bytes @@ fun ic ->
  let fr = Wire.frame () in
  check (name ^ ": one frame") true (Wire.read fr ic);
  check (name ^ ": decoded") true (decode fr = x);
  check (name ^ ": then EOF") false (Wire.read fr ic)

let test_writer_bytes () =
  List.iter
    (writer_roundtrip ~write:Wire.write_request ~encode:Wire.encode_request
       ~decode:Wire.request_of_frame ~pp:Wire.pp_request)
    every_request;
  List.iter
    (writer_roundtrip ~write:Wire.write_response ~encode:Wire.encode_response
       ~decode:Wire.response_of_frame ~pp:Wire.pp_response)
    every_response;
  check_string "a string payload" (framed "hello")
    (written (fun oc -> Wire.write oc Buffer.add_string) "hello")

let allocated_bytes f =
  let before = Gc.allocated_bytes () in
  f ();
  Gc.allocated_bytes () -. before

(* A frame's memory follows the bytes that arrive, not the length it
   announces, and a large frame's buffer is not kept. *)
let test_frame_memory () =
  let mib = 1024 * 1024 in
  let announce n = Wire.magic ^ be32 n in
  let fr = Wire.frame () in
  let torn_read ~sent ~budget =
    with_input (announce (8 * mib) ^ String.make sent 'x') @@ fun ic ->
    let bytes =
      allocated_bytes (fun () ->
          match Wire.read fr ic with
          | _ -> Alcotest.fail "a torn frame was read"
          | exception Wire.Wire_error m ->
            check_string "torn payload"
              (Fmt.str "torn frame payload (%d of %d bytes)" sent (8 * mib)) m)
    in
    if bytes >= float_of_int budget then
      Alcotest.failf "8 MiB announced and %d bytes sent: the read allocated %.0f bytes" sent
        bytes
  in
  torn_read ~sent:0 ~budget:mib;
  torn_read ~sent:65536 ~budget:(4 * 65536);
  let big = Wire.Document { doc_xml = String.make (2 * mib) 'd' } in
  with_input (framed (Wire.encode_response big)) @@ fun ic ->
  check "a 2 MiB frame" true (Wire.read fr ic);
  check "decoded" true (Wire.response_of_frame fr = big);
  let kept = Obj.reachable_words (Obj.repr fr) in
  if kept > 600 then
    Alcotest.failf "after a 2 MiB frame the frame keeps %d words (4 KiB is 513)" kept

(* A fake server on a fresh loopback port: [serve ic oc] runs on the one
   connection it accepts, in a thread, and [f port] meanwhile. *)
let with_fake_server serve f =
  let listen = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen Unix.SO_REUSEADDR true;
  Unix.bind listen (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listen 1;
  let port =
    match Unix.getsockname listen with Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> 0
  in
  let thread =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept listen in
        (try serve (Unix.in_channel_of_descr fd) (Unix.out_channel_of_descr fd)
         with Wire.Wire_error _ | Sys_error _ -> ());
        Unix.close fd)
      ()
  in
  Fun.protect ~finally:(fun () -> Thread.join thread; Unix.close listen) (fun () -> f port)

(* A response with a bad magic, then a valid frame: the client must not
   read the valid frame as the answer to its next call. *)
let test_client_closes_on_bad_frame () =
  let bad_then_good ic oc =
    let fr = Wire.frame () in
    ignore (Wire.read fr ic);
    output_string oc "XXXX\x00\x00\x00\x00";
    Wire.write_response oc (Wire.Pong { peer = "fake"; protocol = Wire.protocol_version });
    (* until the client goes *)
    ignore (Wire.read fr ic)
  in
  with_fake_server bad_then_good @@ fun port ->
  let client = Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  (match Client.rpc client Wire.Ping with
   | exception Client.Net_error m ->
     check_string "bad magic" "wire error: bad frame magic \"XXXX\"" m
   | r -> Alcotest.failf "a bad frame answered %a" Wire.pp_response r);
  match Client.rpc client Wire.Ping with
  | exception Client.Net_error m -> check_string "closed" "connection is closed" m
  | r -> Alcotest.failf "the next call read %a" Wire.pp_response r

(* ------------------------------------------------------------------ *)
(* Wire mutation fuzz                                                   *)
(* ------------------------------------------------------------------ *)

(* Damage a stream of frames: a bit flip, a truncation, a slice of
   [other] spliced in, or a big-endian u32 written over the first
   frame's length header or over any 4 bytes (a field's length or a
   list's count). *)
let mutate_frames other s =
  let open QCheck.Gen in
  let n = String.length s and m = String.length other in
  let set_u32 at v = String.sub s 0 at ^ be32 v ^ String.sub s (at + 4) (n - at - 4) in
  let u32 = oneof [ int_bound 64; int_bound 0xffff; int_bound 0xffffff; return 0xffffffff ] in
  let flip () =
    map2
      (fun i b ->
        String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor (1 lsl b)) else c) s)
      (int_bound (n - 1)) (int_bound 7)
  and splice =
    map3
      (fun i j len ->
        let len = min len (m - j) in
        String.sub s 0 i ^ String.sub other j len ^ String.sub s i (n - i))
      (int_bound n) (int_bound (m - 1)) (int_bound 32)
  in
  frequency
    ((2, map (fun i -> String.sub s 0 i) (int_bound n))
     :: (2, splice)
     :: (if n >= 1 then [ (3, flip ()) ] else [])
     @ (if n >= 8 then [ (2, map (set_u32 4) u32) ] else [])
     @ if n >= 4 then [ (2, map2 set_u32 (int_bound (n - 4)) u32) ] else [])

let gen_damaged encode gen =
  let open QCheck.Gen in
  let frames = map (fun xs -> String.concat "" (List.map (fun x -> framed (encode x)) xs)) in
  let rec damage k s =
    if k = 0 then return s
    else
      frames (list_size (int_range 1 2) gen) >>= fun other ->
      mutate_frames other s >>= damage (k - 1)
  in
  frames (list_size (int_range 1 3) gen) >>= fun s ->
  int_range 1 3 >>= fun k -> damage k s

(* Read every frame of [bytes] and decode it: each step gives a value
   or raises [Wire_error] (any other exception fails the property),
   and the whole stream is done within a second. *)
let reads_or_refuses decode bytes =
  with_input bytes @@ fun ic ->
  let fr = Wire.frame () in
  let t0 = Unix.gettimeofday () in
  let rec go frames =
    if frames > 0 then
      match Wire.read fr ic with
      | false -> ()
      | exception Wire.Wire_error _ -> ()
      | true ->
        (match decode fr with _ -> () | exception Wire.Wire_error _ -> ());
        go (frames - 1)
  in
  go 16;
  Unix.gettimeofday () -. t0 < 1.0

let prop_fuzz_requests =
  QCheck.Test.make ~count:300
    ~name:"wire fuzz: damaged request frames decode or raise Wire_error"
    (QCheck.make ~print:String.escaped (gen_damaged Wire.encode_request gen_request))
    (reads_or_refuses Wire.request_of_frame)

let prop_fuzz_responses =
  QCheck.Test.make ~count:300
    ~name:"wire fuzz: damaged response frames decode or raise Wire_error"
    (QCheck.make ~print:String.escaped (gen_damaged Wire.encode_response gen_response))
    (reads_or_refuses Wire.response_of_frame)

(* ------------------------------------------------------------------ *)
(* Allocation (exact on a non-flambda compiler: [Gc.minor_words]       *)
(* deltas)                                                             *)
(* ------------------------------------------------------------------ *)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Once the spare buffer has grown, writing an Exchange frame allocates
   nothing: no payload string, no header. *)
let test_write_alloc () =
  let req =
    Wire.Exchange
      { exchange = 3; as_name = "front";
        doc_xml = Syntax.to_xml_string ~pretty:false (fig2a "The Sun") }
  in
  let oc = open_out_bin Filename.null in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  Wire.write_request oc req;
  let words = minor_words (fun () -> for _ = 1 to 1000 do Wire.write_request oc req done) in
  if words <> 0. then
    Alcotest.failf "writing an exchange frame allocated %.2f words" (words /. 1000.)

(* Reading an Accepted response into a frame allocates the decoded
   response and nothing else. *)
let test_read_alloc () =
  let resp = Wire.Accepted { as_name = "front-page"; wire_bytes = 912 } in
  let n = 1000 in
  let one = framed (Wire.encode_response resp) in
  with_input (String.concat "" (List.init (n + 1) (fun _ -> one))) @@ fun ic ->
  let fr = Wire.frame () in
  let read () =
    if Wire.read fr ic then Wire.response_of_frame fr
    else Alcotest.fail "early EOF"
  in
  check "decoded" true (read () = resp);
  let words =
    minor_words (fun () -> for _ = 1 to n do ignore (Sys.opaque_identity (read ())) done)
  in
  let response = Obj.reachable_words (Obj.repr resp) in
  if words <> float_of_int (n * response) then
    Alcotest.failf "reading an Accepted response allocated %.2f words; the response is %d"
      (words /. float_of_int n) response

(* A peer served from its own domain: the server's threads allocate on
   that domain's minor heap, so [Gc.minor_words] here counts the client
   alone. *)
let with_server_domain peer f =
  let port = Atomic.make 0 and stop = Semaphore.Binary.make false in
  let domain =
    Domain.spawn (fun () ->
        match Server.start (Endpoint.create peer) with
        | exception e ->
          Atomic.set port (-1);
          raise e
        | server ->
          Atomic.set port (Server.port server);
          Semaphore.Binary.acquire stop;
          Server.stop server)
  in
  while Atomic.get port = 0 do Domain.cpu_relax () done;
  Fun.protect
    ~finally:(fun () -> Semaphore.Binary.release stop; Domain.join domain)
    (fun () -> if Atomic.get port < 0 then Alcotest.fail "no server" else f (Atomic.get port))

(* Words a [Client.send] allocates beyond enforcing and printing its
   document: the Exchange request (4), the Accepted response (3, and 2
   for its name), the outcome (4) and its [Ok] (2). *)
let send_budget = 15

let test_send_alloc () =
  with_server_domain (make_receiver ()) @@ fun port ->
  let client = Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  let sender = make_sender () in
  let doc = fig2a "The Sun" in
  let send () =
    match Client.send client ~sender ~exchange:schema_exchange ~as_name:"front" doc with
    | Ok o -> ignore (Sys.opaque_identity o)
    | Error e -> Alcotest.failf "refused: %a" Enforcement.pp_error e
  in
  let enforce_and_print () =
    let pipeline = Peer.exchange_pipeline sender ~exchange:schema_exchange in
    match Enforcement.Pipeline.enforce pipeline doc with
    | Ok (d, _) -> ignore (Sys.opaque_identity (Syntax.to_xml_string ~pretty:false d))
    | Error e -> Alcotest.failf "refused: %a" Enforcement.pp_error e
  in
  send ();
  enforce_and_print ();
  let n = 500 in
  let per f = minor_words (fun () -> for _ = 1 to n do f () done) /. float_of_int n in
  let sent = per send and work = per enforce_and_print in
  if sent -. work > float_of_int send_budget then
    Alcotest.failf
      "Client.send allocated %.1f words, %.1f beyond enforcing and printing (budget %d)" sent
      (sent -. work) send_budget

(* ------------------------------------------------------------------ *)
(* Endpoint (in-process transport)                                      *)
(* ------------------------------------------------------------------ *)

let open_exchange ?(k = 1) handle schema =
  match
    handle (Wire.Open_exchange { schema_xml = Xml_schema_int.to_string schema; k })
  with
  | Wire.Exchange_opened { id; k = _ } -> id
  | r -> Alcotest.failf "open-exchange: %a" Wire.pp_response r

let test_endpoint_basics () =
  let receiver = make_receiver () in
  let handle = Endpoint.handle (Endpoint.create receiver) in
  (match handle Wire.Ping with
   | Wire.Pong { peer = "reader"; protocol } ->
     check_int "protocol" Wire.protocol_version protocol
   | r -> Alcotest.failf "ping: %a" Wire.pp_response r);
  let id = open_exchange handle schema_exchange in
  let good =
    Syntax.to_xml_string ~pretty:false
      (D.elem "newspaper"
         [ D.elem "title" [ D.data "t" ]; D.elem "date" [ D.data "d" ];
           D.elem "temp" [ D.data "15" ] ])
  in
  (match handle (Wire.Exchange { exchange = id; as_name = "front"; doc_xml = good }) with
   | Wire.Accepted { as_name = "front"; wire_bytes } ->
     check_int "wire bytes" (String.length good) wire_bytes
   | r -> Alcotest.failf "exchange: %a" Wire.pp_response r);
  check "stored" true (Peer.documents receiver = [ "front" ]);
  (match handle (Wire.Get_document { name = "front" }) with
   | Wire.Document { doc_xml } -> check_string "fetch round-trip" good doc_xml
   | r -> Alcotest.failf "get-document: %a" Wire.pp_response r);
  (match handle (Wire.Get_document { name = "nope" }) with
   | Wire.Error { code = "unknown-document"; _ } -> ()
   | r -> Alcotest.failf "unknown document: %a" Wire.pp_response r);
  (match handle (Wire.Exchange { exchange = 999; as_name = "x"; doc_xml = good }) with
   | Wire.Error { code = "unknown-exchange"; _ } -> ()
   | r -> Alcotest.failf "unknown exchange: %a" Wire.pp_response r);
  (* a violating document is refused with located violations *)
  let bad = Syntax.to_xml_string (D.elem "newspaper" [ D.elem "title" [] ]) in
  (match handle (Wire.Exchange { exchange = id; as_name = "bad"; doc_xml = bad }) with
   | Wire.Refused { refusals } -> check "has refusals" true (refusals <> [])
   | r -> Alcotest.failf "bad exchange: %a" Wire.pp_response r);
  check "refused not stored" false (List.mem "bad" (Peer.documents receiver));
  (* malformed schema is a protocol error, not a crash *)
  (match handle (Wire.Open_exchange { schema_xml = "<not-a-schema"; k = 1 }) with
   | Wire.Error { code = "protocol"; _ } -> ()
   | r -> Alcotest.failf "bad schema: %a" Wire.pp_response r);
  match handle (Wire.Get_metrics { format = Wire.Prometheus }) with
  | Wire.Metrics { body; _ } ->
    check "prometheus body" true (String.length body > 0)
  | r -> Alcotest.failf "metrics: %a" Wire.pp_response r

let test_endpoint_services () =
  let provider = Peer.create ~name:"timeout.com" ~schema:schema_exchange () in
  Peer.provide provider ~name:"Get_Temp" ~input:(R.sym (Schema.A_label "city"))
    ~output:(R.sym (Schema.A_label "temp"))
    (Peer.Const [ D.elem "temp" [ D.data "15" ] ]);
  let handle = Endpoint.handle (Endpoint.create provider) in
  (match handle Wire.List_services with
   | Wire.Names { names } -> check "provides Get_Temp" true (names = [ "Get_Temp" ])
   | r -> Alcotest.failf "list-services: %a" Wire.pp_response r);
  (match handle (Wire.Get_wsdl { service = "Get_Temp" }) with
   | Wire.Wsdl { wsdl } ->
     let f, _ = Axml_peer.Wsdl.parse_string wsdl in
     check_string "wsdl function" "Get_Temp" f.Schema.f_name
   | r -> Alcotest.failf "wsdl: %a" Wire.pp_response r);
  (match handle (Wire.Get_wsdl { service = "Nope" }) with
   | Wire.Error { code = "unknown-service"; _ } -> ()
   | r -> Alcotest.failf "unknown service: %a" Wire.pp_response r);
  let envelope =
    Axml_peer.Soap.encode
      (Axml_peer.Soap.Request
         { method_name = "Get_Temp";
           params = [ D.elem "city" [ D.data "Paris" ] ] })
  in
  (match handle (Wire.Invoke { envelope }) with
   | Wire.Envelope { envelope } ->
     (match Axml_peer.Soap.decode envelope with
      | Axml_peer.Soap.Response { result = [ D.Elem { label = "temp"; _ } ]; _ } -> ()
      | _ -> Alcotest.fail "unexpected invoke result")
   | r -> Alcotest.failf "invoke: %a" Wire.pp_response r);
  (* a well-formed envelope whose argument is a call without a
     methodName is the client's fault, answered in SOAP *)
  let envelope =
    Printf.sprintf
      {|<soap:Envelope xmlns:soap="%s" xmlns:int="%s" int:protocol="2"><soap:Body><int:request method="x"><int:args><int:fun/></int:args></int:request></soap:Body></soap:Envelope>|}
      Axml_peer.Soap.soap_ns Axml_peer.Syntax.axml_ns
  in
  match handle (Wire.Invoke { envelope }) with
  | Wire.Envelope { envelope } ->
    (match Axml_peer.Soap.decode envelope with
     | Axml_peer.Soap.Fault { code = "Client"; _ } -> ()
     | _ -> Alcotest.fail "expected a Client fault")
  | r -> Alcotest.failf "invoke of a malformed payload: %a" Wire.pp_response r

(* Sender and receiver must provably agree on the rewriting depth: the
   receiver refuses a mismatched Open_exchange with a stable error
   code, before even parsing the schema. *)
let test_endpoint_k_mismatch () =
  let receiver = make_receiver () in
  Peer.configure receiver { Peer.default_config with Peer.k = 2 };
  let handle = Endpoint.handle (Endpoint.create receiver) in
  let agreement = Xml_schema_int.to_string schema_exchange in
  (match handle (Wire.Open_exchange { schema_xml = agreement; k = 2 }) with
   | Wire.Exchange_opened { k = 2; _ } -> ()
   | r -> Alcotest.failf "open at matched k: %a" Wire.pp_response r);
  (match handle (Wire.Open_exchange { schema_xml = agreement; k = 1 }) with
   | Wire.Error { code = "k-mismatch"; _ } -> ()
   | r -> Alcotest.failf "open at k=1: %a" Wire.pp_response r);
  (* the depth check precedes schema parsing: a garbage schema at the
     wrong depth still reports the mismatch, not a parse error *)
  match handle (Wire.Open_exchange { schema_xml = "<not-a-schema"; k = 7 }) with
  | Wire.Error { code = "k-mismatch"; _ } -> ()
  | r -> Alcotest.failf "mismatch before parse: %a" Wire.pp_response r

(* The client's agreement cache must key on structural schema equality
   (a re-parsed copy is the same agreement), and a stale agreement —
   the server lost its exchange table — must be re-opened
   transparently, once. *)
let test_client_agreement_cache () =
  let receiver = make_receiver () in
  let endpoint = Endpoint.create receiver in
  let server = Server.start endpoint in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  with_client server @@ fun client ->
  let sender = make_sender () in
  let send ~exchange as_name =
    match Client.send client ~sender ~exchange ~as_name (fig2a as_name) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s: %a" as_name Enforcement.pp_error e
  in
  send ~exchange:schema_exchange "one";
  check_int "one exchange opened" 1 (Endpoint.open_exchanges endpoint);
  (* a structurally equal but physically distinct schema — the caller
     re-parsing the same .axs text for every send — re-uses it *)
  let copy = parse_schema schema_exchange_text in
  check "distinct value, equal structure" true
    (copy != schema_exchange && copy = schema_exchange);
  send ~exchange:copy "two";
  check_int "structural equality: still one exchange" 1
    (Endpoint.open_exchanges endpoint);
  (* server forgot the exchange (restart): the cached id is stale, the
     client re-opens once and the send still succeeds *)
  Endpoint.reset_exchanges endpoint;
  check_int "server lost the table" 0 (Endpoint.open_exchanges endpoint);
  send ~exchange:schema_exchange "three";
  check_int "transparently re-opened" 1 (Endpoint.open_exchanges endpoint);
  check "all three stored" true
    (List.sort compare (Peer.documents receiver) = [ "one"; "three"; "two" ])

(* ------------------------------------------------------------------ *)
(* Server: concurrency, parity, abuse                                   *)
(* ------------------------------------------------------------------ *)

(* N client threads stream exchanges concurrently; every response must
   match its request (the echoed [as_name] proves no cross-talk), and
   every verdict must equal the in-process reference. *)
let test_server_concurrent_clients () =
  let receiver = make_receiver () in
  with_server receiver @@ fun server ->
  (* in-process reference: same sender construction, direct receive *)
  let reference = make_receiver () in
  let threads = 4 and per_thread = 12 in
  let failures = Atomic.make 0 in
  let note_failure fmt =
    Fmt.kstr (fun m -> Atomic.incr failures; Fmt.epr "%s@." m) fmt
  in
  let worker tid =
    let sender = make_sender () in
    let twin = make_sender () in
    with_client server @@ fun client ->
    for i = 1 to per_thread do
      let as_name = Fmt.str "doc-%d-%d" tid i in
      let doc = fig2a as_name in
      match
        ( Client.send client ~sender ~exchange:schema_exchange ~as_name doc,
          Peer.send twin ~receiver:reference ~exchange:schema_exchange ~as_name doc )
      with
      | Ok net, Ok r ->
        if not (D.equal net.Peer.sent r.Peer.sent) then
          note_failure "%s: sent documents differ" as_name;
        if net.Peer.wire_bytes <> r.Peer.wire_bytes then
          note_failure "%s: wire bytes differ" as_name
      | Error e, _ | _, Error e ->
        note_failure "%s: failed: %a" as_name Enforcement.pp_error e
    done
  in
  let ts = List.init threads (fun tid -> Thread.create worker tid) in
  List.iter Thread.join ts;
  check_int "no cross-talk or parity failures" 0 (Atomic.get failures);
  check_int "all documents stored" (threads * per_thread)
    (List.length (Peer.documents receiver))

let test_server_killed_client_and_budget () =
  let receiver = make_receiver () in
  with_server receiver @@ fun server ->
  let port = Server.port server in
  (* a client dying mid-frame must not hurt the server *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  ignore (Unix.write_substring fd "AXF1\x00\x00" 0 6);
  Unix.close fd;
  (* a framed but undecodable payload is answered with a protocol error *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let junk = "\xfegarbage" in
  let frame = Buffer.create 16 in
  Buffer.add_string frame Wire.magic;
  List.iter
    (fun shift ->
      Buffer.add_char frame (Char.chr ((String.length junk lsr shift) land 0xff)))
    [ 24; 16; 8; 0 ];
  Buffer.add_string frame junk;
  let bytes = Buffer.contents frame in
  ignore (Unix.write_substring fd bytes 0 (String.length bytes));
  let ic = Unix.in_channel_of_descr fd in
  let fr = Wire.frame () in
  (match Wire.read fr ic with
   | true ->
     (match Wire.response_of_frame fr with
      | Wire.Error { code = "protocol"; _ } -> ()
      | r -> Alcotest.failf "expected protocol error, got %a" Wire.pp_response r)
   | false -> Alcotest.fail "no response to garbage frame");
  Unix.close fd;
  (* the server is still healthy *)
  with_client server @@ fun client ->
  check_string "healthy after abuse" "reader" (fst (Client.ping client))

let test_server_error_budget_closes () =
  let receiver = make_receiver () in
  with_server receiver @@ fun server ->
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let fr = Wire.frame () in
  let junk () = Wire.write oc Buffer.add_string "\xfe" in
  (* exhaust the budget with undecodable frames *)
  for i = 1 to Server.error_budget do
    junk ();
    check (Fmt.str "junk %d answered" i) true (Wire.read fr ic)
  done;
  (* budget exhausted: the connection is closed *)
  (match junk (); Wire.read fr ic with
   | false -> ()
   | true -> Alcotest.fail "connection survived an exhausted error budget"
   | exception Wire.Wire_error _ -> ()
   | exception Sys_error _ -> ())

(* Request tags 7 and 9 are unassigned: a frame carrying either
   is answered as any unknown tag is, with a protocol error, and the
   connection goes on serving. *)
let test_server_freed_tags () =
  let receiver = make_receiver () in
  with_server receiver @@ fun server ->
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let fr = Wire.frame () in
  let answer payload =
    Wire.write oc Buffer.add_string payload;
    check "answered" true (Wire.read fr ic);
    Wire.response_of_frame fr
  in
  List.iter
    (fun payload ->
      match answer payload with
      | Wire.Error { code = "protocol"; _ } -> ()
      | r -> Alcotest.failf "tag %d: %a" (Char.code payload.[0]) Wire.pp_response r)
    [ "\x07"; "\x09\x00\x00\x00\x09<schema/>" ];
  (match answer (Wire.encode_request Wire.Ping) with
   | Wire.Pong { peer = "reader"; _ } -> ()
   | r -> Alcotest.failf "ping after the freed tags: %a" Wire.pp_response r);
  check "response tag 9 is unknown" true
    (match Wire.decode_response "\x09\x00\x00\x00\x02{}" with
     | _ -> false
     | exception Wire.Wire_error _ -> true)

let test_server_admission_control () =
  (* one in-flight slot, held by a gated service call: the second
     request must be refused as "overloaded", never queued *)
  let gate = Semaphore.Binary.make false in
  let entered = Semaphore.Binary.make false in
  let provider = Peer.create ~name:"gated" ~schema:schema_exchange () in
  Peer.provide provider ~name:"Gated" ~input:(R.sym Schema.A_data)
    ~output:(R.sym Schema.A_data)
    (Peer.Compute
       (fun _ ->
         Semaphore.Binary.release entered;
         Semaphore.Binary.acquire gate;
         [ D.data "done" ]));
  let config = { Server.default_config with Server.max_in_flight = 1 } in
  with_server ~config provider @@ fun server ->
  let slow_result = ref None in
  let slow =
    Thread.create
      (fun () ->
        with_client server @@ fun client ->
        slow_result := Some (Client.call client "Gated" [ D.data "x" ]))
      ()
  in
  Semaphore.Binary.acquire entered;
  (* the slot is held; admission control must refuse the next request *)
  (with_client server @@ fun client ->
   match Client.rpc client Wire.Ping with
   | Wire.Error { code = "overloaded"; _ } -> ()
   | r -> Alcotest.failf "expected overloaded, got %a" Wire.pp_response r);
  Semaphore.Binary.release gate;
  Thread.join slow;
  (match !slow_result with
   | Some [ D.Data "done" ] -> ()
   | _ -> Alcotest.fail "gated call did not complete");
  (* the slot is free again *)
  with_client server @@ fun client ->
  check_string "healthy after overload" "gated" (fst (Client.ping client))

let test_server_graceful_stop () =
  let receiver = make_receiver () in
  let server = Server.start (Endpoint.create receiver) in
  let client = Client.connect ~port:(Server.port server) () in
  check_string "served" "reader" (fst (Client.ping client));
  Server.stop server;
  Server.stop server (* idempotent *);
  check_int "no connections survive stop" 0 (Server.connections server);
  (* the socket is gone: requests fail cleanly *)
  (match Client.rpc client Wire.Ping with
   | exception Client.Net_error _ -> ()
   | Wire.Error _ -> ()
   | r -> Alcotest.failf "request served after stop: %a" Wire.pp_response r);
  Client.close client

(* ------------------------------------------------------------------ *)
(* Repository: journal, snapshot, recovery                              *)
(* ------------------------------------------------------------------ *)

let test_repo_journal_recovery () =
  with_temp_dir @@ fun dir ->
  let peer = make_receiver () in
  let repo = Repo.attach ~dir peer in
  let doc name = D.elem "newspaper" [ D.elem "title" [ D.data name ] ] in
  List.iter
    (fun name ->
      Peer.store peer name (doc name);
      Repo.record_store repo name (doc name))
    [ "a"; "b"; "c" ];
  check_int "journal entries" 3 (Repo.journal_entries repo);
  Repo.close repo;
  let reborn = make_receiver () in
  let repo2 = Repo.attach ~dir reborn in
  check_int "recovered" 3 (Repo.recovered repo2);
  check "document intact" true (D.equal (doc "b") (Peer.fetch reborn "b"));
  Repo.close repo2

let test_repo_torn_tail () =
  with_temp_dir @@ fun dir ->
  let peer = make_receiver () in
  let repo = Repo.attach ~dir peer in
  let doc name = D.elem "newspaper" [ D.elem "title" [ D.data name ] ] in
  Repo.record_store repo "intact" (doc "intact");
  Repo.close repo;
  (* simulate a crash mid-append: half a frame at the tail *)
  let oc =
    open_out_gen [ Open_append; Open_binary ] 0o644
      (Filename.concat dir "journal.log")
  in
  output_string oc "AXF1\x00\x00\x01";
  close_out oc;
  let reborn = make_receiver () in
  let repo2 = Repo.attach ~dir reborn in
  check_int "intact prefix recovered" 1 (Repo.recovered repo2);
  check "torn tail truncated, journal usable" true
    (D.equal (doc "intact") (Peer.fetch reborn "intact"));
  (* appending after recovery still works *)
  Repo.record_store repo2 "after" (doc "after");
  Repo.close repo2;
  let third = make_receiver () in
  let repo3 = Repo.attach ~dir third in
  check_int "both records recovered" 2 (Repo.recovered repo3);
  Repo.close repo3

let test_repo_compaction () =
  with_temp_dir @@ fun dir ->
  let peer = make_receiver () in
  let repo = Repo.attach ~dir peer in
  let doc name = D.elem "newspaper" [ D.elem "title" [ D.data name ] ] in
  let stores = Repo.compact_every + 1 in
  for i = 1 to stores do
    let name = string_of_int i in
    Peer.store peer name (doc name);
    Repo.record_store repo name (doc name);
    if i = Repo.compact_every - 1 then
      check "no snapshot below the threshold" false
        (Sys.file_exists (Filename.concat dir "snapshot/MANIFEST"))
  done;
  (* auto-compacted at the threshold: snapshot exists, journal restarted *)
  check "snapshot manifest written" true
    (Sys.file_exists (Filename.concat dir "snapshot/MANIFEST"));
  check_int "journal restarted after compaction" 1 (Repo.journal_entries repo);
  Repo.close repo;
  let reborn = make_receiver () in
  let repo2 = Repo.attach ~dir reborn in
  check_int "snapshot + journal recovered" stores (Repo.recovered repo2);
  check "snapshot document intact" true (D.equal (doc "1") (Peer.fetch reborn "1"));
  Repo.close repo2

(* A compaction writes the snapshot files of the names journalled since
   the last one, the records [attach] replayed included: a file the
   snapshot already holds is left as it is. *)
let test_repo_compaction_writes_changes () =
  with_temp_dir @@ fun dir ->
  let doc name = D.elem "newspaper" [ D.elem "title" [ D.data name ] ] in
  let attach () =
    let peer = make_receiver () in
    (peer, Repo.attach ~dir peer)
  in
  let store (peer, repo) name =
    Peer.store peer name (doc name);
    Repo.record_store repo name (doc name)
  in
  let ((_, repo) as first) = attach () in
  List.iter (store first) [ "a"; "b" ];
  Repo.compact repo;
  let a_file = Filename.concat dir ("snapshot/" ^ Repo.encode_name "a" ^ ".xml") in
  Out_channel.with_open_bin a_file (fun oc ->
      output_string oc (Syntax.to_xml_string (doc "overwritten")));
  List.iter (store first) [ "b"; "c" ];
  Repo.compact repo;
  store first "d";
  Repo.close repo;
  (* "d" comes back from the journal, which this compaction truncates *)
  let _, repo2 = attach () in
  Repo.compact repo2;
  Repo.close repo2;
  let reborn, repo3 = attach () in
  check_int "every document recovered" 4 (Repo.recovered repo3);
  check_int "nothing skipped" 0 (Repo.skipped repo3);
  check "an unchanged document's file is not rewritten" true
    (D.equal (doc "overwritten") (Peer.fetch reborn "a"));
  List.iter
    (fun name -> check (name ^ " recovered") true (D.equal (doc name) (Peer.fetch reborn name)))
    [ "b"; "c"; "d" ];
  Repo.close repo3

let test_repo_odd_names () =
  with_temp_dir @@ fun dir ->
  let peer = make_receiver () in
  let repo = Repo.attach ~dir peer in
  let name = "weird/na me%β.xml" in
  let doc = D.elem "newspaper" [ D.elem "title" [ D.data "x" ] ] in
  Peer.store peer name doc;
  Repo.record_store repo name doc;
  Repo.compact repo (* force the snapshot path through encode_name *);
  Repo.close repo;
  let reborn = make_receiver () in
  let repo2 = Repo.attach ~dir reborn in
  check "odd name round-trips" true (D.equal doc (Peer.fetch reborn name));
  Repo.close repo2

let test_repo_name_codec () =
  List.iter
    (fun name ->
      Alcotest.(check string) name name (Repo.decode_name (Repo.encode_name name)))
    [ "plain"; "with space"; "a/b:c%d"; ""; "\xc3\xa9t\xc3\xa9" ]

(* A damaged snapshot must not take recovery down with it: garbage
   manifest lines and listed-but-missing files are skipped and counted,
   while every intact snapshot document and the journal suffix come
   back. *)
let test_repo_garbage_manifest () =
  with_temp_dir @@ fun dir ->
  let peer = make_receiver () in
  let repo = Repo.attach ~dir peer in
  let doc name = D.elem "newspaper" [ D.elem "title" [ D.data name ] ] in
  List.iter
    (fun name ->
      Peer.store peer name (doc name);
      Repo.record_store repo name (doc name))
    [ "a"; "b" ];
  Repo.compact repo;
  Repo.record_store repo "c" (doc "c");
  Repo.close repo;
  (* damage the manifest: an undecodable line, plus an entry whose
     snapshot file does not exist *)
  let manifest = Filename.concat dir "snapshot/MANIFEST" in
  let oc = open_out_gen [ Open_append ] 0o644 manifest in
  output_string oc "%zzgarbage\nghost\n";
  close_out oc;
  let reborn = make_receiver () in
  let repo2 = Repo.attach ~dir reborn in
  check_int "intact snapshot + journal suffix recovered" 3
    (Repo.recovered repo2);
  check_int "corrupt entries counted" 2 (Repo.skipped repo2);
  check "snapshot doc intact" true (D.equal (doc "a") (Peer.fetch reborn "a"));
  check "journal suffix intact" true (D.equal (doc "c") (Peer.fetch reborn "c"));
  (* the damaged repository stays writable and compactable: the next
     snapshot rewrites a clean manifest *)
  Repo.record_store repo2 "d" (doc "d");
  Peer.store reborn "d" (doc "d");
  Repo.compact repo2;
  Repo.close repo2;
  let third = make_receiver () in
  let repo3 = Repo.attach ~dir third in
  check_int "clean manifest after recompaction" 0 (Repo.skipped repo3);
  check_int "everything recovered" 4 (Repo.recovered repo3);
  Repo.close repo3

(* A journal in the framing of the earlier writer (a payload string
   built whole, then framed), torn tail included, recovers unchanged,
   and the new writer appends records in the same bytes. *)
let test_repo_earlier_journal () =
  with_temp_dir @@ fun dir ->
  let doc name = D.elem "newspaper" [ D.elem "title" [ D.data name ] ] in
  let record name =
    framed (be32 (String.length name) ^ name ^ Syntax.to_xml_string ~pretty:false (doc name))
  in
  let intact = record "a" ^ record "weird/na me%β" in
  let journal = Filename.concat dir "journal.log" in
  let read_journal () = In_channel.with_open_bin journal In_channel.input_all in
  Sys.mkdir dir 0o755;
  Out_channel.with_open_bin journal (fun oc ->
      output_string oc (intact ^ String.sub (record "c") 0 20));
  let reborn = make_receiver () in
  let repo = Repo.attach ~dir reborn in
  check_int "intact records recovered" 2 (Repo.recovered repo);
  check "first" true (D.equal (doc "a") (Peer.fetch reborn "a"));
  check "second" true (D.equal (doc "weird/na me%β") (Peer.fetch reborn "weird/na me%β"));
  check_string "the torn tail is cut off" intact (read_journal ());
  Repo.record_store repo "d" (doc "d");
  Repo.close repo;
  check_string "records appended in the same bytes" (intact ^ record "d") (read_journal ())

(* ------------------------------------------------------------------ *)
(* HTTP front                                                           *)
(* ------------------------------------------------------------------ *)

let test_http_routes () =
  let receiver = make_receiver () in
  with_server receiver @@ fun server ->
  let port = Server.port server in
  let status, body = Client.http ~port ~meth:"GET" ~path:"/health" () in
  check_int "health status" 200 status;
  check_string "health body" "ok\n" body;
  let status, body = Client.http ~port ~meth:"GET" ~path:"/metrics" () in
  check_int "metrics status" 200 status;
  check "metrics body" true (String.length body > 0);
  let status, body = Client.http ~port ~meth:"GET" ~path:"/metrics.json" () in
  check_int "metrics.json status" 200 status;
  let metrics = Jsonv.parse_exn "metrics.json body" body in
  check "metrics.json lists families" true (Jsonv.elements [ "metrics" ] metrics <> []);
  let status, _ = Client.http ~port ~meth:"GET" ~path:"/nope" () in
  check_int "404" 404 status;
  let good =
    Syntax.to_xml_string ~pretty:false
      (D.elem "newspaper"
         [ D.elem "title" [ D.data "t" ]; D.elem "date" [ D.data "d" ];
           D.elem "temp" [ D.data "15" ] ])
  in
  let status, body =
    Client.http ~port ~meth:"POST" ~path:"/exchange?as=posted" ~body:good ()
  in
  check_int "post accepted" 200 status;
  let reply = Jsonv.parse_exn "exchange reply" body in
  Jsonv.check_at "stored name" reply [ "stored" ] (Axml_obs.Json.String "posted");
  check "stored bytes" true
    (match Jsonv.at [ "bytes" ] reply with Some (Axml_obs.Json.Int n) -> n > 0 | _ -> false);
  check "stored via HTTP" true (List.mem "posted" (Peer.documents receiver));
  let status, body =
    Client.http ~port ~meth:"POST" ~path:"/exchange"
      ~body:"<newspaper><title>no</title></newspaper>" ()
  in
  check_int "violating post refused" 422 status;
  check "violation reported" true (String.length body > 0);
  let status, _ =
    Client.http ~port ~meth:"POST" ~path:"/exchange" ~body:"<not-xml" ()
  in
  check_int "malformed post refused" 422 status

module Http = Axml_net.Http

(* [read_request] on [bytes]: the request, or the refusal's status and
   reason, and the bytes the read allocated. *)
let read_http_measured bytes =
  with_input bytes @@ fun ic ->
  let result = ref (Error (0, "EOF")) in
  let allocated =
    allocated_bytes (fun () ->
        result :=
          match Http.read_request ic with
          | Some req -> Ok req
          | None -> Error (0, "EOF")
          | exception Http.Http_error { status; reason } -> Error (status, reason))
  in
  (!result, allocated)

let read_http bytes = fst (read_http_measured bytes)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let mib = 1024 * 1024

(* The body's memory follows the bytes that arrive, not the
   Content-Length the request announces. *)
let test_http_body_memory () =
  let post n body = Fmt.str "POST /exchange HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" n body in
  (match read_http_measured (post (8 * mib) "") with
   | Error (400, reason), bytes when starts_with ~prefix:"EOF in body" reason ->
     if bytes >= float_of_int mib then
       Alcotest.failf "8 MiB announced, none sent: the read allocated %.0f bytes" bytes
   | Error (status, reason), _ -> Alcotest.failf "refused %d: %s" status reason
   | Ok _, _ -> Alcotest.fail "a torn body was read");
  List.iter
    (fun n ->
      let body = String.init n (fun i -> Char.chr (i land 0xff)) in
      match read_http (post n body) with
      | Ok req -> check (Fmt.str "a %d-byte body" n) true (req.Http.body = body)
      | Error (status, reason) -> Alcotest.failf "%d bytes refused %d: %s" n status reason)
    [ 0; 5; 4096; 4097; 70_000 ]

(* Each refusal answers its own status: 431 for a head over its caps,
   413 for a body over the cap, 400 for anything else. A head line of
   several MiB costs no more than the line cap. *)
let test_http_refusals () =
  let refused name status bytes =
    match read_http bytes with
    | Error (s, _) -> check_int name status s
    | Ok _ -> Alcotest.failf "%s: read" name
  in
  let long = String.make (4 * mib) 'h' in
  (match read_http_measured ("GET /health HTTP/1.1\r\nX-Long: " ^ long) with
   | Error (431, _), bytes ->
     if bytes >= float_of_int mib then
       Alcotest.failf "a 4 MiB header line allocated %.0f bytes" bytes
   | Error (status, reason), _ -> Alcotest.failf "a 4 MiB header line refused %d: %s" status reason
   | Ok _, _ -> Alcotest.fail "a 4 MiB header line was read");
  refused "a 4 MiB request line" 431 ("GET /" ^ long ^ " HTTP/1.1\r\n\r\n");
  (* "GET " ^ path ^ " HTTP/1.1\r" fills the cap exactly *)
  let path = "/" ^ String.make (Http.max_line_bytes - 15) 'l' in
  (match read_http ("GET " ^ path ^ " HTTP/1.1\r\n\r\n") with
   | Ok req -> check_string "a line at the cap" path req.Http.path
   | Error (status, reason) -> Alcotest.failf "a line at the cap refused %d: %s" status reason);
  let headers n = String.concat "" (List.init n (fun i -> Fmt.str "X-%d: v\r\n" i)) in
  (match read_http ("GET /health HTTP/1.1\r\n" ^ headers Http.max_headers ^ "\r\n") with
   | Ok req -> check_int "headers at the cap" Http.max_headers (List.length req.Http.headers)
   | Error (status, reason) -> Alcotest.failf "headers at the cap refused %d: %s" status reason);
  refused "one header too many" 431
    ("GET /health HTTP/1.1\r\n" ^ headers (Http.max_headers + 1) ^ "\r\n");
  refused "a body over the cap" 413
    (Fmt.str "POST /exchange HTTP/1.1\r\nContent-Length: %d\r\n\r\nhello world"
       (Wire.max_frame_bytes + 1));
  refused "a malformed request line" 400 "GET\r\n\r\n";
  refused "a malformed header" 400 "GET / HTTP/1.1\r\nno colon\r\n\r\n";
  refused "a malformed Content-Length" 400
    "POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n";
  (* spellings [int_of_string] reads as numbers, each followed by the
     bytes it would announce *)
  List.iter
    (fun (spelling, n) ->
      refused ("Content-Length " ^ spelling) 400
        (Fmt.str "POST / HTTP/1.1\r\nContent-Length: %s\r\n\r\n%s" spelling
           (String.make n 'x')))
    [ ("0x10", 16); ("1_000", 1000); ("+5", 5); ("0o17", 15); ("0b11", 3); ("0u12", 12) ];
  refused "EOF in headers" 400 "GET / HTTP/1.1\r\nHost: x\r\n"

(* The server answers a refused head with the refusal's status. *)
let test_http_server_status () =
  with_server (make_receiver ()) @@ fun server ->
  let status_of request =
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
    let oc = Unix.out_channel_of_descr fd and ic = Unix.in_channel_of_descr fd in
    output_string oc request;
    flush oc;
    input_line ic
  in
  check_string "an over-long header"
    "HTTP/1.1 431 Request Header Fields Too Large\r"
    (status_of ("GET /health HTTP/1.1\r\nX: " ^ String.make (Http.max_line_bytes + 1) 'x'));
  check_string "a malformed request" "HTTP/1.1 400 Bad Request\r"
    (status_of "GET\r\n\r\n")

(* Two HTTP connections that send one byte and stall hold both of two
   connection slots only until their receive timeout: a third
   connection is refused while they hold them, then served. *)
let test_http_stalled_connections_time_out () =
  let config = { Server.default_config with max_connections = 2 } in
  with_server ~config (make_receiver ()) @@ fun server ->
  let connect () =
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
    fd
  in
  let stalled = List.init 2 (fun _ -> connect ()) in
  Fun.protect ~finally:(fun () -> List.iter Unix.close stalled) @@ fun () ->
  List.iter (fun fd -> ignore (Unix.write_substring fd "G" 0 1)) stalled;
  let t0 = Unix.gettimeofday () in
  while Server.connections server < 2 && Unix.gettimeofday () -. t0 < 2.0 do
    Thread.delay 0.01
  done;
  check_int "both stalled connections held" 2 (Server.connections server);
  let health () =
    let fd = connect () in
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    let request = "GET /health HTTP/1.1\r\n\r\n" in
    match
      ignore (Unix.write_substring fd request 0 (String.length request));
      input_line (Unix.in_channel_of_descr fd)
    with
    | status -> Some status
    | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> None
  in
  check "a third connection is refused at the cap" true (health () = None);
  let deadline = t0 +. Server.http_read_timeout_s +. 2.0 in
  let rec served () =
    match health () with
    | Some status -> status
    | None when Unix.gettimeofday () < deadline ->
      Thread.delay 0.05;
      served ()
    | None -> Alcotest.fail "no slot freed within the timeout plus 2 s"
  in
  check_string "served after the timeout" "HTTP/1.1 200 OK\r" (served ())

(* ------------------------------------------------------------------ *)
(* HTTP mutation fuzz                                                   *)
(* ------------------------------------------------------------------ *)

(* A valid request: a method, a path, a few headers and, for a POST, a
   body with its Content-Length. *)
let gen_http_request =
  let open QCheck.Gen in
  let token = string_size ~gen:(char_range 'a' 'z') (int_range 1 12) in
  let header = map2 (fun n v -> Fmt.str "%s: %s\r\n" n v) token token in
  map3
    (fun (meth, path) headers body ->
      let body = if meth = "POST" then body else "" in
      Fmt.str "%s /%s HTTP/1.1\r\n%sContent-Length: %d\r\n\r\n%s" meth path
        (String.concat "" headers) (String.length body) body)
    (pair (oneofl [ "GET"; "POST" ]) token)
    (list_size (int_bound 4) header)
    (string_size ~gen:char (int_bound 200))

(* Damage a request: a bit flip, a truncation, a slice of [other]
   spliced in, the Content-Length value rewritten, or an over-long run
   of bytes with no newline put in. *)
let mutate_http other s =
  let open QCheck.Gen in
  let n = String.length s and m = String.length other in
  let flip () =
    map2
      (fun i b ->
        String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor (1 lsl b)) else c) s)
      (int_bound (n - 1)) (int_bound 7)
  and splice =
    map3
      (fun i j len ->
        let len = min len (m - j) in
        String.sub s 0 i ^ String.sub other j len ^ String.sub s i (n - i))
      (int_bound n) (int_bound (m - 1)) (int_bound 64)
  and length =
    let key = "Content-Length: " in
    let rec find i =
      if i + String.length key > n then None
      else if String.sub s i (String.length key) = key then Some (i + String.length key)
      else find (i + 1)
    in
    match find 0 with
    | None -> return s
    | Some at ->
      let stop = Option.value (String.index_from_opt s at '\r') ~default:n in
      map
        (fun v -> String.sub s 0 at ^ v ^ String.sub s stop (n - stop))
        (oneof
           [ map string_of_int (int_bound 0xffffff);
             return "-1"; return "99999999999999999999"; return "";
             oneofl [ "0x10"; "1_000"; "+5"; "0o17"; "0b11"; "0u12" ];
             string_size ~gen:printable (int_bound 8) ])
  and long_line =
    map2
      (fun i extra -> String.sub s 0 i ^ String.make (Http.max_line_bytes + extra) 'L' ^ String.sub s i (n - i))
      (int_bound n) (int_bound 64)
  in
  frequency
    ((2, map (fun i -> String.sub s 0 i) (int_bound n))
     :: (2, splice) :: (2, length) :: (1, long_line)
     :: (if n >= 1 then [ (3, flip ()) ] else []))

let gen_damaged_http =
  let open QCheck.Gen in
  let rec damage k s =
    if k = 0 then return s
    else gen_http_request >>= fun other -> mutate_http other s >>= damage (k - 1)
  in
  list_size (int_range 1 2) gen_http_request >>= fun rs ->
  int_range 1 3 >>= fun k -> damage k (String.concat "" rs)

(* Read requests from [bytes] until EOF or a refusal: each read gives a
   request, [None] or [Http_error] (any other exception fails the
   property), and the whole stream is done within a second. *)
let http_reads_or_refuses bytes =
  with_input bytes @@ fun ic ->
  let t0 = Unix.gettimeofday () in
  let rec go reads =
    if reads > 0 then
      match Http.read_request ic with
      | None | (exception Http.Http_error _) -> ()
      | Some _ -> go (reads - 1)
  in
  go 4;
  Unix.gettimeofday () -. t0 < 1.0

let prop_fuzz_http =
  QCheck.Test.make ~count:500
    ~name:"http fuzz: damaged requests read or raise Http_error"
    (QCheck.make ~print:String.escaped gen_damaged_http)
    http_reads_or_refuses

(* ------------------------------------------------------------------ *)

let qcheck = List.map QCheck_alcotest.to_alcotest
    [ prop_request_roundtrip; prop_response_roundtrip ]

(* The per-operation request counters are found without a lock: four
   systhreads, each serving 1,000 requests of two operations through one
   endpoint, are all counted, and by operation. *)
let test_endpoint_request_counts () =
  let handle = Endpoint.handle (Endpoint.create (make_receiver ())) in
  let count op =
    Axml_obs.Metrics.counter_value
      (Axml_obs.Metrics.counter ~help:"Endpoint requests served, by operation"
         ~labels:[ ("op", op) ] "axml_net_requests_total")
  in
  let pings = count "ping" and lists = count "list-services" in
  let serve () =
    for i = 1 to 1000 do
      ignore (handle (if i land 1 = 0 then Wire.Ping else Wire.List_services))
    done
  in
  List.iter Thread.join (List.init 4 (fun _ -> Thread.create serve ()));
  check_int "pings counted" (pings + 2000) (count "ping");
  check_int "listings counted" (lists + 2000) (count "list-services")

let () =
  Alcotest.run "net"
    [ ("wire",
       [ Alcotest.test_case "rejects garbage" `Quick test_wire_rejects_garbage;
         Alcotest.test_case "framing" `Quick test_wire_framing;
         Alcotest.test_case "writer bytes, every constructor" `Quick test_writer_bytes;
         Alcotest.test_case "frame memory follows the bytes" `Quick test_frame_memory ]);
      ("wire-properties", qcheck);
      ("wire-fuzz",
       List.map QCheck_alcotest.to_alcotest [ prop_fuzz_requests; prop_fuzz_responses ]);
      ("alloc",
       [ Alcotest.test_case "a warm frame write allocates nothing" `Quick test_write_alloc;
         Alcotest.test_case "a read allocates its response" `Quick test_read_alloc;
         Alcotest.test_case "Client.send within its budget" `Quick test_send_alloc ]);
      ("client",
       [ Alcotest.test_case "a bad frame closes the connection" `Quick
           test_client_closes_on_bad_frame ]);
      ("endpoint",
       [ Alcotest.test_case "documents and metrics" `Quick test_endpoint_basics;
         Alcotest.test_case "request counts under 4 systhreads" `Quick
           test_endpoint_request_counts;
         Alcotest.test_case "services over the wire" `Quick test_endpoint_services;
         Alcotest.test_case "k-mismatch refused" `Quick test_endpoint_k_mismatch;
         Alcotest.test_case "agreement cache and re-open" `Quick
           test_client_agreement_cache ]);
      ("server",
       [ Alcotest.test_case "concurrent clients, verdict parity" `Quick
           test_server_concurrent_clients;
         Alcotest.test_case "killed client and garbage frames" `Quick
           test_server_killed_client_and_budget;
         Alcotest.test_case "error budget closes the connection" `Quick
           test_server_error_budget_closes;
         Alcotest.test_case "freed request tags answer protocol" `Quick
           test_server_freed_tags;
         Alcotest.test_case "admission control refuses, never queues" `Quick
           test_server_admission_control;
         Alcotest.test_case "graceful stop" `Quick test_server_graceful_stop ]);
      ("repo",
       [ Alcotest.test_case "journal recovery" `Quick test_repo_journal_recovery;
         Alcotest.test_case "torn tail" `Quick test_repo_torn_tail;
         Alcotest.test_case "compaction" `Quick test_repo_compaction;
         Alcotest.test_case "compaction writes what changed" `Quick
           test_repo_compaction_writes_changes;
         Alcotest.test_case "odd repository names" `Quick test_repo_odd_names;
         Alcotest.test_case "name codec" `Quick test_repo_name_codec;
         Alcotest.test_case "garbage manifest" `Quick test_repo_garbage_manifest;
         Alcotest.test_case "journal in the earlier framing" `Quick test_repo_earlier_journal ]);
      ("http",
       [ Alcotest.test_case "routes" `Quick test_http_routes;
         Alcotest.test_case "body memory follows the bytes" `Quick test_http_body_memory;
         Alcotest.test_case "refusals and their statuses" `Quick test_http_refusals;
         Alcotest.test_case "the server answers the refusal's status" `Quick
           test_http_server_status;
         Alcotest.test_case "stalled connections time out" `Quick
           test_http_stalled_connections_time_out ]);
      ("http-fuzz", [ QCheck_alcotest.to_alcotest prop_fuzz_http ]) ]
