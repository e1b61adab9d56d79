(* Finite-field Diffie-Hellman: groups, key generation, shared-secret
   computation, plus Miller-Rabin primality and deterministic safe-prime
   group generation.

   Two kinds of groups are provided. [oakley2] is the real 1024-bit MODP
   group (RFC 2409 Second Oakley Group) that production TLS stacks shipped
   for DHE; it is exercised by tests, examples and benches. Large-scale
   simulation sweeps instead use [generate ~bits ~seed] safe-prime groups
   of ~64..128 bits so that tens of millions of simulated handshakes stay
   tractable — the key exchange is still a real modular-exponentiation DH,
   just over smaller parameters (documented in DESIGN.md). *)

type group = {
  name : string;
  p : Bignum.t; (* prime modulus *)
  g : Bignum.t; (* generator *)
  q_bits : int; (* exponent size drawn for private values *)
  mont : Bignum.mont; (* cached Montgomery context for p *)
  g_fixed : Bignum.fixed_base; (* comb table for g^priv in gen_keypair *)
}

let make_group ~name ~p ~g ~q_bits =
  let mont = Bignum.mont_of_modulus p in
  { name; p; g; q_bits; mont; g_fixed = Bignum.fixed_base mont g ~max_bits:q_bits }

let group_name g = g.name
let group_p g = g.p
let group_g g = g.g

(* RFC 2409 section 6.2 — 1024-bit MODP ("Second Oakley Group"),
   p = 2^1024 - 2^960 - 1 + 2^64 * (floor(2^894 pi) + 129093), generator 2.
   Primality is verified by a test. *)
let oakley2 =
  let p =
    Bignum.of_hex
      ("FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
     ^ "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
     ^ "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
     ^ "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF")
  in
  make_group ~name:"modp1024(oakley2)" ~p ~g:Bignum.two ~q_bits:256

(* --- Primality ----------------------------------------------------------- *)

let small_primes =
  [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67;
    71; 73; 79; 83; 89; 97; 101; 103; 107; 109; 113; 127; 131; 137; 139; 149;
    151; 157; 163; 167; 173; 179; 181; 191; 193; 197; 199 ]

let miller_rabin_round ctx n ~d ~r a =
  (* n - 1 = d * 2^r with d odd; returns false iff [a] witnesses
     compositeness. [ctx] is n's Montgomery context, shared by every
     round over one candidate. *)
  let n1 = Bignum.sub n Bignum.one in
  let x = ref (Bignum.pow_mod_ctx ctx a d) in
  if Bignum.is_one !x || Bignum.equal !x n1 then true
  else begin
    let ok = ref false in
    let i = ref 1 in
    while (not !ok) && !i < r do
      x := Bignum.rem (Bignum.mul !x !x) n;
      if Bignum.equal !x n1 then ok := true;
      incr i
    done;
    !ok
  end

let is_probably_prime ?(rounds = 20) ?rng n =
  if Bignum.compare n Bignum.two < 0 then false
  else if Bignum.compare n (Bignum.of_int 4) < 0 then true (* 2 and 3 *)
  else if Bignum.is_even n then false
  else begin
    let divisible_by_small =
      List.exists
        (fun q ->
          let qn = Bignum.of_int q in
          Bignum.compare n qn > 0 && Bignum.is_zero (Bignum.rem n qn))
        small_primes
    in
    if divisible_by_small then
      (* n may itself be one of the small primes. *)
      List.exists (fun q -> Bignum.equal n (Bignum.of_int q)) small_primes
    else begin
      let n1 = Bignum.sub n Bignum.one in
      let r = ref 0 in
      let d = ref n1 in
      while Bignum.is_even !d do
        d := Bignum.shift_right !d 1;
        incr r
      done;
      let rng = match rng with Some r -> r | None -> Rng.create ~seed:"mr-default" in
      let witness () =
        (* Draw a in [2, n-2]. *)
        let a = Rng.bignum_below rng (Bignum.sub n (Bignum.of_int 3)) in
        Bignum.add a Bignum.two
      in
      let ctx = Bignum.mont_of_modulus n in
      let rec loop k =
        k = 0 || (miller_rabin_round ctx n ~d:!d ~r:!r (witness ()) && loop (k - 1))
      in
      loop rounds
    end
  end

(* --- Deterministic safe-prime group generation --------------------------- *)

(* A safe prime p = 2q + 1 with q prime; generator 4 = 2^2 lies in the
   order-q subgroup of squares, so every honestly generated public value
   lands in a prime-order group. *)
let generate_cache : (int * string, group) Hashtbl.t = Hashtbl.create 8

(* Guards [generate_cache]: parallel-campaign domains request sim groups
   concurrently, and an unsynchronized Hashtbl resize under that race can
   corrupt the table (same hazard the fixed-base comb cache in Bignum
   guards against). *)
let generate_lock = Mutex.create ()

let generate_uncached ~bits ~seed =
  if bits < 16 || bits > 256 then invalid_arg "Dh.generate: bits out of range";
  let rng = Rng.create ~seed:(Printf.sprintf "dh-group:%s:%d" seed bits) in
  let rec search () =
    let raw = Bignum.of_bytes_be (Rng.generate rng ((bits + 7) / 8)) in
    (* Force the top bit (so q has exactly bits-1 bits) and oddness. *)
    let q =
      Bignum.add
        (Bignum.rem raw (Bignum.shift_left Bignum.one (bits - 2)))
        (Bignum.shift_left Bignum.one (bits - 2))
    in
    let q = if Bignum.is_even q then Bignum.add_int q 1 else q in
    if not (is_probably_prime ~rounds:16 ~rng q) then search ()
    else
      let p = Bignum.add_int (Bignum.shift_left q 1) 1 in
      if is_probably_prime ~rounds:16 ~rng p then (p, q) else search ()
  in
  let p, q = search () in
  ignore q;
  make_group
    ~name:(Printf.sprintf "sim-modp%d(%s)" bits seed)
    ~p ~g:(Bignum.of_int 4) ~q_bits:(min (bits - 2) 64)

let generate ~bits ~seed =
  let cached =
    Mutex.protect generate_lock (fun () -> Hashtbl.find_opt generate_cache (bits, seed))
  in
  match cached with
  | Some g -> g
  | None ->
      (* Generate outside the lock: primality search is expensive and the
         result is deterministic in (bits, seed), so a losing racer just
         recomputes the same group. First writer wins so every caller
         shares one physical group (and its Montgomery/comb caches). *)
      let g = generate_uncached ~bits ~seed in
      Mutex.protect generate_lock (fun () ->
          match Hashtbl.find_opt generate_cache (bits, seed) with
          | Some g -> g
          | None ->
              Hashtbl.replace generate_cache (bits, seed) g;
              g)

(* --- Key exchange -------------------------------------------------------- *)

type keypair = { group : group; priv : Bignum.t; pub : Bignum.t }

let gen_keypair group rng =
  (* Short exponents: [q_bits] of entropy, never 0 or 1. *)
  let bound = Bignum.shift_left Bignum.one group.q_bits in
  let priv = Bignum.add_int (Rng.bignum_below rng (Bignum.sub_int bound 2)) 2 in
  let pub = Bignum.pow_mod_fixed group.g_fixed priv in
  { group; priv; pub }

let public_bytes kp =
  let len = (Bignum.num_bits kp.group.p + 7) / 8 in
  Bignum.to_bytes_be ~len kp.pub

let valid_public group pub =
  (* Reject the degenerate values 0, 1 and p-1 (and out-of-range). *)
  Bignum.compare pub Bignum.one > 0
  && Bignum.compare pub (Bignum.sub_int group.p 1) < 0

let shared_secret kp ~peer_pub =
  if not (valid_public kp.group peer_pub) then Error "dh: invalid peer public value"
  else begin
    let z = Bignum.pow_mod_ctx kp.group.mont peer_pub kp.priv in
    let len = (Bignum.num_bits kp.group.p + 7) / 8 in
    Ok (Bignum.to_bytes_be ~len z)
  end

let shared_secret_exn kp ~peer_pub =
  match shared_secret kp ~peer_pub with
  | Ok z -> z
  | Error e -> invalid_arg e
