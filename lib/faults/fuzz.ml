(* The deterministic structure-aware wire fuzzer: the executable proof
   of the totality invariant ("no peer-facing decoder ever raises, and
   none allocates unboundedly, on arbitrary bytes").

   Every iteration derives a key [seed|i], picks a target, mutates that
   target's canned valid wire blob with {!Byzantine.mutate} (byte flips,
   truncation, zeroed/maximized length fields, garbage splices, version
   rewrites, slice duplication — the same mutator the injector
   schedules), and drives the result through the real decoder or engine
   entry point. Two failure modes are recorded:

   - an exception escaping the drive (the totality violation the fuzzer
     exists to catch), and
   - a per-drive allocation beyond the target's cap (a hostile length
     field turning into an attacker-sized buffer).

   Everything is a pure function of (seed, count): re-running with the
   same arguments replays the same inputs, so any escape's hex dump is
   a permanent reproducer. *)

module Msg = Tls.Handshake_msg

type escape = {
  e_target : string;
  e_input : string; (* the exact bytes that were driven *)
  e_reason : string; (* exception text, or the allocation-cap breach *)
}

type report = {
  executed : int;
  parsed : int; (* drives the decoder accepted *)
  rejected : int; (* drives rejected with a typed error *)
  escapes : escape list;
  by_target : (string * int) list; (* drives per target, fuzzer order *)
}

(* --- Reproducer formatting ------------------------------------------------- *)

let hex_dump s =
  let b = Buffer.create (String.length s * 4) in
  let n = String.length s in
  let rec line off =
    if off < n then begin
      Printf.bprintf b "%08x  " off;
      let stop = min (off + 16) n in
      for i = off to off + 15 do
        if i < stop then Printf.bprintf b "%02x " (Char.code s.[i])
        else Buffer.add_string b "   ";
        if i - off = 7 then Buffer.add_char b ' '
      done;
      Buffer.add_char b ' ';
      for i = off to stop - 1 do
        let c = s.[i] in
        Buffer.add_char b (if c >= ' ' && c < '\x7f' then c else '.')
      done;
      Buffer.add_char b '\n';
      line (off + 16)
    end
  in
  line 0;
  Buffer.contents b

let render_escape e =
  Printf.sprintf "target: %s\nreason: %s\ninput (%d bytes):\n%s" e.e_target e.e_reason
    (String.length e.e_input) (hex_dump e.e_input)

(* --- The fuzz environment --------------------------------------------------
   Small-parameter engines (the simulation environment), built once per
   run from fixed seeds: engine-level targets need a live client and
   server, and small groups keep 100k drives fast. *)

type fuzz_env = {
  client_config : Tls.Config.client_config;
  server : Tls.Server.t;
  pending : Tls.Server.pending option; (* a full handshake mid-flight *)
  client_flight : string; (* valid [SH; Cert; SKE; SHD] for this env *)
  dhe_flight : string; (* same shape, DHE suite: the peer-supplied-group path *)
  cert_bytes : string;
  psk_blob : string;
}

let build_env () =
  let env = Tls.Config.sim_env ~seed:"wire-fuzz-env" () in
  let r = Crypto.Rng.create ~seed:"wire-fuzz-pki" in
  let ca =
    Tls.Cert.self_signed ~curve:env.Tls.Config.pki_curve ~name:"Fuzz CA" ~not_before:0
      ~not_after:(1 lsl 40) ~serial:1 r
  in
  let key = Crypto.Ecdsa.gen_keypair env.Tls.Config.pki_curve r in
  let cert =
    Tls.Cert.issue ca ~curve:env.Tls.Config.pki_curve ~subject:"fuzz.example" ~not_before:0
      ~not_after:(1 lsl 40) ~serial:2
      ~pub:(Crypto.Ec.point_bytes env.Tls.Config.pki_curve (Crypto.Ecdsa.public_key key))
      r
  in
  let server =
    Tls.Server.create
      ~config:
        {
          Tls.Config.env;
          suites = Tls.Types.all_cipher_suites;
          issue_session_ids = true;
          session_cache = Some (Tls.Session_cache.create ~lifetime:3600 ~capacity:64);
          tickets =
            Some
              {
                Tls.Config.stek_manager =
                  Tls.Stek_manager.create ~policy:Tls.Stek_manager.Static
                    ~secret:"wire-fuzz-stek" ~now:0;
                lifetime_hint = 3600;
                accept_lifetime = 3600;
                reissue_on_resumption = true;
              };
          kex_cache = Tls.Kex_cache.create ();
          cert_chain = [ cert ];
          cert_key = key;
        }
      ~rng:(Crypto.Rng.create ~seed:"wire-fuzz-server")
  in
  let client_config =
    {
      Tls.Config.cl_env = env;
      offer_suites = Tls.Types.all_cipher_suites;
      offer_ticket = true;
      root_store = Tls.Cert.empty_store ();
      check_certs = false;
      evaluate_trust = false;
      verify_ske = false;
    }
  in
  (* One real server flight (and a pending handshake) to mutate. *)
  let probe_client =
    Tls.Client.create ~config:client_config
      ~rng:(Crypto.Rng.create ~seed:"wire-fuzz-probe")
      ()
  in
  let ch, _ =
    Tls.Client.hello probe_client ~now:100 ~hostname:"fuzz.example" ~offer:Tls.Client.Fresh
  in
  let client_flight, pending =
    match Tls.Server.handle_client_hello server ~now:100 ch with
    | Ok (Tls.Server.Negotiating (msgs, pending)) ->
        (String.concat "" (List.map (fun m -> m.Msg.bytes) msgs), Some pending)
    | Ok (Tls.Server.Resuming (msgs, _, _)) ->
        (String.concat "" (List.map (fun m -> m.Msg.bytes) msgs), None)
    | Error _ -> ("", None)
  in
  (* A hand-built DHE flight: mutating its explicit (p, g, Ys) drives
     the client's peer-supplied-group validation, the path where a
     hostile modulus once meant an exception or an unbounded pow_mod. *)
  let dhe_flight =
    let r = Crypto.Rng.create ~seed:"wire-fuzz-dhe" in
    let group = env.Tls.Config.dh_group in
    String.concat ""
      (List.map Msg.to_bytes
         [
           Msg.Server_hello
             {
               sh_version = Tls.Types.TLS_1_2;
               sh_random = Crypto.Rng.generate r Tls.Types.random_len;
               sh_session_id = "";
               sh_cipher_suite = Tls.Types.DHE_ECDSA_AES128_SHA256;
               sh_extensions = [ Tls.Extension.Renegotiation_info ];
             };
           Msg.Certificate [ Tls.Cert.to_bytes cert ];
           Msg.Server_key_exchange
             {
               ske_params =
                 Msg.Ske_dhe
                   {
                     dh_p = Crypto.Bignum.to_bytes_be (Crypto.Dh.group_p group);
                     dh_g = Crypto.Bignum.to_bytes_be (Crypto.Dh.group_g group);
                     dh_ys = Crypto.Rng.generate r 8;
                   };
               ske_signature = Crypto.Rng.generate r 64;
             };
           Msg.Server_hello_done;
         ])
  in
  let psk_rng = Crypto.Rng.create ~seed:"wire-fuzz-psk" in
  let psk_blob =
    Tls.Tls13.seal_psk Byzantine.template_stek psk_rng
      {
        Tls.Tls13.psk = Crypto.Rng.generate psk_rng 32;
        issued_at = 100;
        lifetime = 7 * 86400;
        max_early_data = 16384;
      }
  in
  {
    client_config;
    server;
    pending;
    client_flight;
    dhe_flight;
    cert_bytes = Tls.Cert.to_bytes cert;
    psk_blob;
  }

(* --- Targets ---------------------------------------------------------------
   Each target: a template to mutate, a drive that must be total, and an
   allocation cap. Parser caps are tight (decoded structures are bounded
   by input size); engine caps are looser (key exchange does real
   bignum arithmetic on small groups). *)

type target = {
  t_name : string;
  t_template : string;
  t_drive : string -> bool; (* true = accepted / parsed *)
  t_alloc_cap : string -> float; (* bytes allowed per drive, from input *)
}

(* Allocation accounting caveat: on OCaml 5 the runtime attributes
   minor-heap allocation to [Gc.allocated_bytes] only at collection
   boundaries, so a per-drive delta can absorb up to one minor heap of
   unrelated allocation. [run] shrinks the minor heap to keep that noise
   floor at 128 KiB; large (major-heap) allocations — the hostile-length
   preallocations the cap exists to catch — are counted exactly. *)
let fuzz_minor_heap_words = 16 * 1024

let parser_cap s = float_of_int ((512 * 1024) + (64 * String.length s))
let engine_cap s = float_of_int ((4 * 1024 * 1024) + (256 * String.length s))

let tpl name =
  let _, _, bytes =
    Array.to_list Byzantine.templates
    |> List.find (fun (n, _, _) -> String.equal n name)
  in
  bytes

let targets env =
  let client_state () =
    let client =
      Tls.Client.create ~config:env.client_config
        ~rng:(Crypto.Rng.create ~seed:"wire-fuzz-client")
        ()
    in
    snd (Tls.Client.hello client ~now:100 ~hostname:"fuzz.example" ~offer:Tls.Client.Fresh)
  in
  [|
    {
      t_name = "handshake-flight";
      t_template = tpl "full-flight";
      t_drive = (fun s -> Result.is_ok (Msg.read_all s));
      t_alloc_cap = parser_cap;
    };
    {
      t_name = "client-hello";
      t_template = tpl "client-hello";
      t_drive = (fun s -> Result.is_ok (Msg.of_bytes s));
      t_alloc_cap = parser_cap;
    };
    {
      t_name = "abbreviated-flight";
      t_template = tpl "abbreviated-flight";
      t_drive = (fun s -> Result.is_ok (Msg.read_all s));
      t_alloc_cap = parser_cap;
    };
    {
      t_name = "record-stream";
      t_template = tpl "record-stream";
      t_drive = (fun s -> Result.is_ok (Tls.Record.read_all s));
      t_alloc_cap = parser_cap;
    };
    {
      t_name = "session-blob";
      t_template = tpl "session-blob";
      t_drive = (fun s -> Result.is_ok (Tls.Session.of_bytes s));
      t_alloc_cap = parser_cap;
    };
    {
      t_name = "ticket-blob";
      t_template = tpl "ticket-blob";
      t_drive =
        (fun s -> Result.is_ok (Tls.Ticket.unseal ~find_stek:Byzantine.find_stek s));
      t_alloc_cap = parser_cap;
    };
    {
      t_name = "tls13-psk";
      t_template = env.psk_blob;
      t_drive =
        (fun s -> Result.is_ok (Tls.Tls13.unseal_psk ~find_stek:Byzantine.find_stek s));
      t_alloc_cap = parser_cap;
    };
    {
      t_name = "certificate";
      t_template = env.cert_bytes;
      t_drive = (fun s -> Result.is_ok (Tls.Cert.of_bytes s));
      t_alloc_cap = parser_cap;
    };
    {
      t_name = "client-engine";
      t_template = env.client_flight;
      t_drive =
        (fun s ->
          (* The engine boundary: parse, then hand anything that parsed
             to the client's flight handler. Both stages must be total. *)
          match Msg.read_all s with
          | Error _ -> false
          | Ok msgs ->
              Result.is_ok (Tls.Client.handle_server_flight (client_state ()) msgs));
      t_alloc_cap = engine_cap;
    };
    {
      t_name = "client-engine-dhe";
      t_template = env.dhe_flight;
      t_drive =
        (fun s ->
          match Msg.read_all s with
          | Error _ -> false
          | Ok msgs ->
              Result.is_ok (Tls.Client.handle_server_flight (client_state ()) msgs));
      t_alloc_cap = engine_cap;
    };
    {
      t_name = "server-engine";
      t_template = tpl "client-hello";
      t_drive =
        (fun s ->
          match Msg.read_all s with
          | Ok [ hello ] -> Result.is_ok (Tls.Server.handle_client_hello env.server ~now:100 hello)
          | Ok _ | Error _ -> false);
      t_alloc_cap = engine_cap;
    };
    {
      t_name = "server-cke";
      t_template =
        String.concat ""
          (List.map Msg.to_bytes
             [
               Msg.Client_key_exchange (String.make 8 '\x42');
               Msg.Finished (String.make Tls.Types.verify_data_len '\x17');
             ]);
      t_drive =
        (fun s ->
          match (env.pending, Msg.read_all s) with
          | None, _ | _, Error _ -> false
          | Some pending, Ok msgs ->
              Result.is_ok (Tls.Server.handle_client_flight pending ~now:100 msgs));
      t_alloc_cap = engine_cap;
    };
  |]

(* --- The driver ------------------------------------------------------------ *)

let run ?(seed = "wire-fuzz") ?(progress = fun _ -> ()) ~count () =
  let gc_before = Gc.get () in
  Gc.set { gc_before with Gc.minor_heap_size = fuzz_minor_heap_words };
  Fun.protect ~finally:(fun () -> Gc.set gc_before) @@ fun () ->
  let env = build_env () in
  let targets = targets env in
  let counts = Array.make (Array.length targets) 0 in
  let executed = ref 0 and parsed = ref 0 and rejected = ref 0 in
  let escapes = ref [] in
  for i = 0 to count - 1 do
    let key = Printf.sprintf "%s|%d" seed i in
    let ti = Det.int_in (key ^ "|target") ~lo:0 ~hi:(Array.length targets - 1) in
    let t = targets.(ti) in
    (* One raw-garbage drive in sixteen: mutation preserves most of the
       template's structure, so pure noise covers the far shore. *)
    let input =
      if Det.int_in (key ^ "|raw") ~lo:0 ~hi:15 = 0 then
        Crypto.Rng.generate
          (Crypto.Rng.create ~seed:(key ^ "|rawbytes"))
          (Det.int_in (key ^ "|rawlen") ~lo:0 ~hi:512)
      else Byzantine.mutate ~key t.t_template
    in
    counts.(ti) <- counts.(ti) + 1;
    incr executed;
    let before = Gc.allocated_bytes () in
    (match t.t_drive input with
    | true -> incr parsed
    | false -> incr rejected
    | exception e ->
        escapes :=
          { e_target = t.t_name; e_input = input; e_reason = Printexc.to_string e }
          :: !escapes);
    let allocated = Gc.allocated_bytes () -. before in
    if allocated > t.t_alloc_cap input then
      escapes :=
        {
          e_target = t.t_name;
          e_input = input;
          e_reason =
            Printf.sprintf "allocation cap exceeded: %.0f bytes for a %d-byte input"
              allocated (String.length input);
        }
        :: !escapes;
    progress !executed
  done;
  {
    executed = !executed;
    parsed = !parsed;
    rejected = !rejected;
    escapes = !escapes;
    by_target =
      Array.to_list (Array.mapi (fun i t -> (t.t_name, counts.(i))) targets);
  }
