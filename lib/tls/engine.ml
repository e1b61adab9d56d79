(* End-to-end handshake driver: runs a client against a server instance,
   exchanging *serialized* handshake flights (every message crosses a
   bytes boundary, so the codecs are always exercised), and distills the
   exchange into the observation record the scanner consumes.

   One encoding per message: the sender's [Handshake_msg.frame] bytes are
   the wire bytes and the sender's transcript input; the receiver parses
   them with [Handshake_msg.read_all] and hashes the same bytes. *)

module Msg = Handshake_msg

type outcome = {
  ok : bool;
  alert : Types.alert option;
  error : string option; (* client-side failure description *)
  cipher : Types.cipher_suite option;
  resumed : [ `No | `Via_session_id | `Via_ticket ];
  session : Session.t option; (* client's resulting session state *)
  session_id : string; (* ID from ServerHello; "" if none *)
  new_ticket : (int * string) option; (* lifetime hint, ticket bytes *)
  stek_key_name : string option; (* peeked from the ticket *)
  server_kex_public : string option; (* (EC)DHE server value, wire bytes *)
  cert_chain : Cert.t list;
  trusted : bool;
}

let failed ?alert ?error () =
  {
    ok = false;
    alert;
    error;
    cipher = None;
    resumed = `No;
    session = None;
    session_id = "";
    new_ticket = None;
    stek_key_name = None;
    server_kex_public = None;
    cert_chain = [];
    trusted = false;
  }

(* Send a flight's bytes and reparse them, as the wire would. Each
   message was encoded once by its sender, and the receiver gets it back
   with the exact bytes it arrived as, so neither side re-encodes it for
   its transcript. A wiretap — the paper's passive adversary — sees every
   flight's bytes. *)
type direction = Client_to_server | Server_to_client

let over_the_wire ?wiretap ~direction (msgs : Msg.framed list) =
  let bytes = String.concat "" (List.map (fun m -> m.Msg.bytes) msgs) in
  (match wiretap with Some tap -> tap direction bytes | None -> ());
  Msg.read_all bytes

let ( let* ) = Result.bind

let run_exchange ?wiretap client server ~now ~hostname ~offer =
  let over_the_wire ~direction msgs = over_the_wire ?wiretap ~direction msgs in
  let ch, state = Client.hello client ~now ~hostname ~offer in
  let* ch =
    match over_the_wire ~direction:Client_to_server [ ch ] with
    | Ok [ ch ] -> Ok ch
    | Ok _ | Error _ -> Error (failed ~error:"client hello serialization failed" ())
  in
  let* server_result =
    match Server.handle_client_hello server ~now ch with
    | Ok r -> Ok r
    | Error alert -> Error (failed ~alert ())
  in
  match server_result with
  | Server.Resuming (flight, resuming, how) -> (
      let* flight =
        match over_the_wire ~direction:Server_to_client flight with
        | Ok f -> Ok f
        | Error e -> Error (failed ~error:("server flight corrupt: " ^ e) ())
      in
      match Client.handle_server_flight state flight with
      | Error e -> Error (failed ~error:e ())
      | Ok (Client.Abbreviated { client_finished; session; new_ticket; session_id }) -> (
          let* fin =
            match over_the_wire ~direction:Client_to_server [ client_finished ] with
            | Ok [ f ] -> Ok f
            | Ok _ | Error _ -> Error (failed ~error:"client finished corrupt" ())
          in
          match Server.handle_client_finished resuming fin with
          | Error alert -> Error (failed ~alert ())
          | Ok _server_session ->
              Ok
                {
                  ok = true;
                  alert = None;
                  error = None;
                  cipher = Some (Session.cipher_suite session);
                  resumed = (how :> [ `No | `Via_session_id | `Via_ticket ]);
                  session = Some session;
                  session_id;
                  new_ticket;
                  stek_key_name =
                    Option.bind new_ticket (fun (_, t) -> Ticket.peek_key_name t);
                  server_kex_public = None;
                  cert_chain = [];
                  trusted = true (* unchanged from the original handshake *);
                })
      | Ok (Client.Continue_full _) ->
          Error (failed ~error:"server answered resumption with a full flight shape" ()))
  | Server.Negotiating (flight, pending) -> (
      let* flight =
        match over_the_wire ~direction:Server_to_client flight with
        | Ok f -> Ok f
        | Error e -> Error (failed ~error:("server flight corrupt: " ^ e) ())
      in
      match Client.handle_server_flight state flight with
      | Error e -> Error (failed ~error:e ())
      | Ok (Client.Abbreviated _) ->
          Error (failed ~error:"unexpected abbreviated flight" ())
      | Ok
          (Client.Continue_full
             { to_send; continuation; cert_chain; trust; server_kex_public; session_id }) -> (
          let* to_send =
            match over_the_wire ~direction:Client_to_server to_send with
            | Ok f -> Ok f
            | Error e -> Error (failed ~error:("client flight corrupt: " ^ e) ())
          in
          match Server.handle_client_flight pending ~now to_send with
          | Error alert -> Error (failed ~alert ())
          | Ok (closing, _server_session) -> (
              let* closing =
                match over_the_wire ~direction:Server_to_client closing with
                | Ok f -> Ok f
                | Error e -> Error (failed ~error:("server closing flight corrupt: " ^ e) ())
              in
              match Client.finish_full continuation ~now closing with
              | Error e -> Error (failed ~error:e ())
              | Ok (session, new_ticket) ->
                  Ok
                    {
                      ok = true;
                      alert = None;
                      error = None;
                      cipher = Some (Session.cipher_suite session);
                      resumed = `No;
                      session = Some session;
                      session_id;
                      new_ticket;
                      stek_key_name =
                        Option.bind new_ticket (fun (_, t) -> Ticket.peek_key_name t);
                      server_kex_public;
                      cert_chain;
                      trusted = Result.is_ok trust;
                    })))

(* [connect] is the scanner's single entry point: one TLS connection
   attempt, fresh or resuming. *)
let connect ?wiretap client server ~now ~hostname ~offer =
  match run_exchange ?wiretap client server ~now ~hostname ~offer with Ok o -> o | Error o -> o
