(* HKDF (RFC 5869) over HMAC-SHA256, plus the TLS 1.3 labeled variants
   (RFC 8446 section 7.1). This is the key-schedule substrate for the
   TLS 1.3 resumption model that projects the paper's findings onto the
   (then-draft) protocol's PSK mechanisms. *)

let hash_len = 32

let extract ?(salt = "") ikm =
  let salt = if salt = "" then String.make hash_len '\x00' else salt in
  Hmac.sha256 ~key:salt ikm

let expand ~prk ~info len =
  if len > 255 * hash_len then invalid_arg "Hkdf.expand: length too large";
  let ctx = Hmac.key prk in
  let buf = Buffer.create len in
  let t = ref "" in
  let i = ref 1 in
  while Buffer.length buf < len do
    t := Hmac.mac_parts ctx [ !t; info; String.make 1 (Char.chr !i) ];
    Buffer.add_string buf !t;
    incr i
  done;
  Buffer.sub buf 0 len

(* TLS 1.3 HkdfLabel: u16 length, "tls13 " ^ label as a u8-vector, then
   the context as a u8-vector. *)
let expand_label ~secret ~label ~context len =
  let info =
    Wire.Writer.build (fun w ->
        Wire.Writer.u16 w len;
        Wire.Writer.vec8 w ("tls13 " ^ label);
        Wire.Writer.vec8 w context)
  in
  expand ~prk:secret ~info len

(* Derive-Secret(secret, label, messages) = Expand-Label with the
   transcript hash as context and the hash length as output size. *)
let derive_secret ~secret ~label ~transcript_hash =
  expand_label ~secret ~label ~context:transcript_hash hash_len
