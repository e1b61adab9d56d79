(* Resumable TLS session state: what a server caches against a session ID
   and what a session ticket carries under the STEK. Holding this state
   beyond the connection is precisely the forward-secrecy erosion the
   paper measures, so the record also tracks when the state came into
   existence. *)

type t = {
  id : string; (* session ID; may be "" for ticket-only sessions *)
  master_secret : string;
  cipher_suite : Types.cipher_suite;
  established_at : int; (* epoch seconds of the original full handshake *)
}

let make ~id ~master_secret ~cipher_suite ~established_at =
  if String.length master_secret <> Crypto.Prf.master_secret_len then
    invalid_arg "Session.make: master secret must be 48 bytes";
  if String.length id > Types.session_id_max then invalid_arg "Session.make: session ID too long";
  { id; master_secret; cipher_suite; established_at }

let id t = t.id
let master_secret t = t.master_secret
let cipher_suite t = t.cipher_suite
let established_at t = t.established_at

(* Wire form, used inside session tickets. *)
let write w t =
  Wire.Writer.vec8 w t.id;
  Wire.Writer.vec8 w t.master_secret;
  Wire.Writer.u16 w (Types.suite_to_int t.cipher_suite);
  Wire.Writer.u64 w t.established_at

let to_bytes t = Wire.Writer.build (fun w -> write w t)

(* Decoded state must satisfy the same invariants [make] enforces —
   ticket blobs are peer-influenced bytes, so violations are parse
   errors, not assertion failures. *)
let read r =
  let id = Wire.Reader.vec8 r in
  if String.length id > Types.session_id_max then
    raise (Wire.Reader.Error "session: session ID too long");
  let master_secret = Wire.Reader.vec8 r in
  if String.length master_secret <> Crypto.Prf.master_secret_len then
    raise (Wire.Reader.Error "session: master secret must be 48 bytes");
  let suite_code = Wire.Reader.u16 r in
  let established_at = Wire.Reader.u64 r in
  match Types.suite_of_int suite_code with
  | None -> raise (Wire.Reader.Error "session: unknown cipher suite")
  | Some cipher_suite -> { id; master_secret; cipher_suite; established_at }

let of_bytes s = Wire.Reader.parse_result s read

let equal a b =
  String.equal a.id b.id
  && String.equal a.master_secret b.master_secret
  && a.cipher_suite = b.cipher_suite
  && a.established_at = b.established_at
