(* Label-addressed counter-mode streams over SHA-256 (see rng.mli).

   This is the only randomness source in the project: crypto keys,
   simulated-operator behaviour and workload generation all draw from
   seeded generators, so every experiment is reproducible bit for bit.
   It is a counter-based, splittable generator in the manner of Salmon
   et al. ("Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011) with
   SHA-256 as the block function: a child is addressed by its label
   under the parent's key instead of being seeded from the parent's
   stream, so an entity's stream does not depend on when it was built.

   A generator is one buffer and two counts:

     [0, 32)    key
     [32]       0x00
     [33, 41)   block counter, big-endian
     [41, 73)   the current block

   Bytes [0, 41) are exactly the hash input of the next block, so a
   refill is one [Sha256.digest_short] from the buffer into itself and
   allocates nothing. *)

(* The labels a generator has forked: a short list, then a table once it
   forks more than [few]. Most parents fork a handful of children and
   keep their labels for the life of the world (an endpoint forks one
   per slot); the world builder forks thousands. *)
type labels = Few of int * string list | Many of (string, unit) Hashtbl.t

let few = 8

type t = {
  s : Bytes.t;
  mutable counter : int; (* blocks drawn; the buffer holds block [counter - 1] *)
  mutable offset : int; (* bytes of the current block used; 32 when spent *)
  mutable forked : labels;
}

let key_len = 32
let input_len = 41
let out_pos = 41
let block_len = 32

let empty () =
  { s = Bytes.make (out_pos + block_len) '\x00'; counter = 0; offset = block_len; forked = Few (0, []) }

(* Write block [counter] into [dst] at [at] and count it. *)
let next_block t dst ~at =
  Bytes.set_int64_be t.s (key_len + 1) (Int64.of_int t.counter);
  Sha256.digest_short t.s ~pos:0 ~len:input_len dst ~at;
  t.counter <- t.counter + 1

let refill t =
  next_block t t.s ~at:out_pos;
  t.offset <- 0

(* A generator keyed SHA-256(prefix || sep || data): one or two
   compressions with no hash state while the input fits two blocks, the
   streaming hash beyond. *)
let keyed prefix ~len sep data =
  let n = len + 1 + String.length data in
  let input = Bytes.create n in
  Bytes.blit prefix 0 input 0 len;
  Bytes.set input len sep;
  Bytes.blit_string data 0 input (len + 1) (String.length data);
  let t = empty () in
  if n <= Sha256.max_tail then Sha256.digest_short input ~pos:0 ~len:n t.s ~at:0
  else Bytes.blit_string (Sha256.digest (Bytes.unsafe_to_string input)) 0 t.s 0 key_len;
  t

let root_prefix = Bytes.of_string "tlsharm-rng"

let create ~seed = keyed root_prefix ~len:(Bytes.length root_prefix) '\x02' seed

let fork t ~label =
  let twice () = invalid_arg (Printf.sprintf "Rng.fork: label %S forked twice" label) in
  (match t.forked with
  | Few (n, labels) ->
      if List.mem label labels then twice ();
      if n < few then t.forked <- Few (n + 1, label :: labels)
      else begin
        let tbl = Hashtbl.create (4 * few) in
        List.iter (fun l -> Hashtbl.add tbl l ()) (label :: labels);
        t.forked <- Many tbl
      end
  | Many tbl ->
      if Hashtbl.mem tbl label then twice ();
      Hashtbl.add tbl label ());
  keyed t.s ~len:key_len '\x01' label

(* --- Draws ------------------------------------------------------------------ *)

(* What is left of the current block, then whole blocks hashed straight
   into [buf], then a fresh block for the tail. *)
let generate_into t (buf : Bytes.t) ~pos ~len =
  if len < 0 || pos < 0 || pos > Bytes.length buf - len then
    invalid_arg "Rng.generate_into: range out of bounds";
  let take = min len (block_len - t.offset) in
  Bytes.blit t.s (out_pos + t.offset) buf pos take;
  t.offset <- t.offset + take;
  let pos = ref (pos + take) and left = ref (len - take) in
  while !left >= block_len do
    next_block t buf ~at:!pos;
    pos := !pos + block_len;
    left := !left - block_len
  done;
  if !left > 0 then begin
    refill t;
    Bytes.blit t.s out_pos buf !pos !left;
    t.offset <- !left
  end

let generate t n =
  if n < 0 then invalid_arg "Rng.generate: negative length";
  let buf = Bytes.create n in
  generate_into t buf ~pos:0 ~len:n;
  Bytes.unsafe_to_string buf

let byte t =
  if t.offset = block_len then refill t;
  let b = Bytes.get_uint8 t.s (out_pos + t.offset) in
  t.offset <- t.offset + 1;
  b

(* A word never straddles a block: a short remainder is skipped. *)
let bits62 t =
  if t.offset > block_len - 8 then refill t;
  let v = Int64.to_int (Bytes.get_int64_be t.s (out_pos + t.offset)) in
  t.offset <- t.offset + 8;
  v land max_int

let int_below t n =
  if n <= 0 then invalid_arg "Rng.int_below: bound must be positive";
  (* Rejection sampling for an unbiased draw. *)
  let limit = max_int - (max_int mod n) in
  let v = ref (bits62 t) in
  while !v >= limit do
    v := bits62 t
  done;
  !v mod n

let int_range t lo hi =
  if hi < lo then invalid_arg "Rng.int_range: empty range";
  lo + int_below t (hi - lo + 1)

let float01 t = float_of_int (bits62 t) /. float_of_int max_int

let bool t ~p = float01 t < p

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int_below t (Array.length arr))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int_below t (List.length l))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int_below t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* Draw from a discrete distribution given as (weight, value) pairs. *)
let weighted t choices =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0. choices in
  if total <= 0. then invalid_arg "Rng.weighted: non-positive total weight";
  let target = float01 t *. total in
  let rec go acc = function
    | [] -> invalid_arg "Rng.weighted: empty"
    | [ (_, v) ] -> v
    | (w, v) :: rest -> if acc +. w >= target then v else go (acc +. w) rest
  in
  go 0. choices

(* Exponential draw with the given mean (for Poisson-ish event spacing). *)
let exponential t ~mean =
  let u = float01 t in
  let u = if u <= 0. then epsilon_float else u in
  -.mean *. log u

let bignum_below t (n : Bignum.t) =
  if Bignum.is_zero n then invalid_arg "Rng.bignum_below: bound must be positive";
  let bits = Bignum.num_bits n in
  let bytes = (bits + 7) / 8 in
  (* Mask the top byte down to [bits] so the acceptance rate of the
     rejection sampling is at least 1/2. *)
  let top_mask = 0xff lsr (8 - (((bits - 1) mod 8) + 1)) in
  let raw = Bytes.create bytes in
  let rec go () =
    generate_into t raw ~pos:0 ~len:bytes;
    Bytes.set raw 0 (Char.chr (Char.code (Bytes.get raw 0) land top_mask));
    let v = Bignum.of_bytes_be (Bytes.unsafe_to_string raw) in
    if Bignum.compare v n < 0 then v else go ()
  in
  go ()

(* A value in [1, n-1], the usual range for DH exponents. *)
let bignum_in_group t (n : Bignum.t) =
  let v = bignum_below t (Bignum.sub n Bignum.one) in
  Bignum.add v Bignum.one

(* --- Snapshots ----------------------------------------------------------------- *)

type state = { key : string; counter : int; offset : int }

let state t = { key = Bytes.sub_string t.s 0 key_len; counter = t.counter; offset = t.offset }

let valid { key; counter; offset } =
  String.length key = key_len && counter >= 0 && offset >= 0 && offset <= block_len
  && (counter > 0 || offset = block_len)

(* The current block is recomputed from its index, so a snapshot is the
   key and two counts, never the block itself. *)
let restore ~state:st =
  if not (valid st) then invalid_arg "Rng.restore: invalid state";
  let t = empty () in
  Bytes.blit_string st.key 0 t.s 0 key_len;
  if st.offset < block_len then begin
    t.counter <- st.counter - 1;
    refill t
  end;
  t.counter <- st.counter;
  t.offset <- st.offset;
  t
