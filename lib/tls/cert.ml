(* A deliberately small X.509 stand-in: enough structure for the
   measurements (is the chain browser-trusted? is it valid at scan time?
   does it cover this hostname?) with real ECDSA signatures over a real
   TBS byte encoding. The paper restricts every analysis to domains
   presenting browser-trusted certificates, so trust evaluation must
   actually work; DER/ASN.1 fidelity is irrelevant and skipped
   (documented in DESIGN.md). *)

type t = {
  subject : string; (* common name *)
  sans : string list; (* additional dns names *)
  issuer : string;
  serial : int;
  not_before : int; (* epoch seconds *)
  not_after : int;
  pub : string; (* SEC1 point bytes on the PKI curve *)
  is_ca : bool;
  signature : string;
}

let subject c = c.subject
let issuer c = c.issuer
let public_key c = c.pub

(* --- Encoding ------------------------------------------------------------- *)

let write_tbs w c =
  let open Wire.Writer in
  vec8 w c.subject;
  u8 w (List.length c.sans);
  List.iter (vec8 w) c.sans;
  vec8 w c.issuer;
  u32 w c.serial;
  u64 w c.not_before;
  u64 w c.not_after;
  vec8 w c.pub;
  u8 w (if c.is_ca then 1 else 0)

let tbs_bytes c = Wire.Writer.build (fun w -> write_tbs w c)

let to_bytes c =
  Wire.Writer.build (fun w ->
      write_tbs w c;
      Wire.Writer.vec16 w c.signature)

let read (r : Wire.Reader.t) =
  let open Wire.Reader in
  let subject = vec8 r in
  let nsans = u8 r in
  let sans = List.init nsans (fun _ -> vec8 r) in
  let issuer = vec8 r in
  let serial = u32 r in
  let not_before = u64 r in
  let not_after = u64 r in
  let pub = vec8 r in
  let is_ca = u8 r = 1 in
  let signature = vec16 r in
  { subject; sans; issuer; serial; not_before; not_after; pub; is_ca; signature }

let of_bytes s = Wire.Reader.parse_result s read

(* --- Authorities ------------------------------------------------------------ *)

type authority = { cert : t; keypair : Crypto.Ecdsa.keypair }

let authority_cert a = a.cert

(* Wrap an already-issued CA certificate (e.g. an intermediate) so it can
   issue further certificates. *)
let authority_of ~cert ~keypair = { cert; keypair }

let self_signed ~curve ~name ~not_before ~not_after ~serial rng =
  let keypair = Crypto.Ecdsa.gen_keypair curve rng in
  let unsigned =
    {
      subject = name;
      sans = [];
      issuer = name;
      serial;
      not_before;
      not_after;
      pub = Crypto.Ec.point_bytes curve (Crypto.Ecdsa.public_key keypair);
      is_ca = true;
      signature = "";
    }
  in
  let signature =
    Crypto.Ecdsa.signature_bytes curve (Crypto.Ecdsa.sign keypair rng (tbs_bytes unsigned))
  in
  { cert = { unsigned with signature }; keypair }

let issue (a : authority) ~curve ~subject ?(sans = []) ?(is_ca = false) ~not_before ~not_after
    ~serial ~pub rng =
  let unsigned =
    {
      subject;
      sans;
      issuer = a.cert.subject;
      serial;
      not_before;
      not_after;
      pub;
      is_ca;
      signature = "";
    }
  in
  let signature =
    Crypto.Ecdsa.signature_bytes curve (Crypto.Ecdsa.sign a.keypair rng (tbs_bytes unsigned))
  in
  { unsigned with signature }

(* --- Validation -------------------------------------------------------------- *)

type validation_error =
  | Expired of string
  | Not_yet_valid of string
  | Bad_signature of string
  | Untrusted_root of string
  | Name_mismatch of { hostname : string; cert : string }
  | Empty_chain
  | Not_a_ca of string
  | Not_evaluated

let pp_validation_error ppf = function
  | Expired s -> Format.fprintf ppf "certificate expired: %s" s
  | Not_yet_valid s -> Format.fprintf ppf "certificate not yet valid: %s" s
  | Bad_signature s -> Format.fprintf ppf "bad signature on: %s" s
  | Untrusted_root s -> Format.fprintf ppf "chain does not reach a trusted root: %s" s
  | Name_mismatch { hostname; cert } ->
      Format.fprintf ppf "hostname %s not covered by certificate for %s" hostname cert
  | Empty_chain -> Format.fprintf ppf "empty certificate chain"
  | Not_a_ca s -> Format.fprintf ppf "intermediate is not a CA: %s" s
  | Not_evaluated -> Format.fprintf ppf "trust not evaluated"

(* The root store maps issuer names to trusted public keys, the moral
   equivalent of the NSS store the paper validates against. *)
type root_store = (string, string) Hashtbl.t

let empty_store () : root_store = Hashtbl.create 16
let store_of_list certs =
  let s = empty_store () in
  List.iter (fun c -> Hashtbl.replace s c.subject c.pub) certs;
  s

(* Wildcard matching: "*.example.com" covers exactly one extra label. *)
let name_matches ~hostname pattern =
  let pattern = String.lowercase_ascii pattern and hostname = String.lowercase_ascii hostname in
  if String.equal pattern hostname then true
  else
    match String.index_opt pattern '*' with
    | Some 0 when String.length pattern > 1 && pattern.[1] = '.' ->
        let suffix = String.sub pattern 1 (String.length pattern - 1) in
        (* hostname must be <label> ^ suffix with a non-empty, dot-free label *)
        String.length hostname > String.length suffix
        && String.equal suffix
             (String.sub hostname
                (String.length hostname - String.length suffix)
                (String.length suffix))
        &&
        let label = String.sub hostname 0 (String.length hostname - String.length suffix) in
        label <> "" && not (String.contains label '.')
    | _ -> false

let covers_hostname cert ~hostname =
  List.exists (name_matches ~hostname) (cert.subject :: cert.sans)

let check_validity ~now cert =
  if now < cert.not_before then Error (Not_yet_valid cert.subject)
  else if now > cert.not_after then Error (Expired cert.subject)
  else Ok ()

let verify_signature ~curve ~signer_pub cert =
  match Crypto.Ec.point_of_bytes curve signer_pub with
  | Error _ -> false
  | Ok pub -> (
      match Crypto.Ecdsa.signature_of_bytes curve cert.signature with
      | Error _ -> false
      | Ok sg -> Crypto.Ecdsa.verify ~curve ~pub ~msg:(tbs_bytes cert) sg)

(* Validate [chain] (leaf first) against the store at time [now] for
   [hostname]. Returns the leaf on success. *)
let validate ~curve ~store ~now ~hostname chain =
  let ( let* ) = Result.bind in
  match chain with
  | [] -> Error Empty_chain
  | leaf :: rest ->
      let* () = check_validity ~now leaf in
      let* () =
        if covers_hostname leaf ~hostname then Ok ()
        else Error (Name_mismatch { hostname; cert = leaf.subject })
      in
      let rec walk cert = function
        | [] -> (
            (* Must be signed by a root in the store. *)
            match Hashtbl.find_opt store cert.issuer with
            | Some root_pub ->
                if verify_signature ~curve ~signer_pub:root_pub cert then Ok leaf
                else Error (Bad_signature cert.subject)
            | None -> Error (Untrusted_root cert.issuer))
        | intermediate :: rest ->
            let* () = check_validity ~now intermediate in
            let* () =
              if intermediate.is_ca then Ok () else Error (Not_a_ca intermediate.subject)
            in
            if verify_signature ~curve ~signer_pub:intermediate.pub cert then
              walk intermediate rest
            else Error (Bad_signature cert.subject)
      in
      walk leaf rest
