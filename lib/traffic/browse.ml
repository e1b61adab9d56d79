(* Popularity tables for the browsing model.

   Primary pages: P(domain at position i) ∝ weight_i / (i+1) over the
   rank-sorted HTTPS domains — a zipf law over the *represented* Top
   Million (the sampling weight expands each sampled domain to the real
   sites it stands for), evaluated on the sampled array positions.

   Subresources: a second, much steeper zipf over the head of the same
   array. The head is where the shared operators live (flagships and
   CDN-fronted customers), so independent users keep meeting the same
   few third parties — the recurrence the tracking analysis measures. *)

type t = {
  names : string array;  (* rank order *)
  cum : float array;  (* cumulative popularity, same indexing *)
  total : float;
  tp_cum : float array;  (* cumulative popularity over the head pool *)
  tp_total : float;
  host_table : (string * Row.host_info) list;
}

let tp_pool_size = 96

let create world =
  let all = Simnet.World.domains world in
  let https =
    Array.of_list
      (List.filter Simnet.World.domain_has_https (Array.to_list all))
  in
  let n = Array.length https in
  if n = 0 then invalid_arg "Browse.create: world has no HTTPS domains";
  let names = Array.map Simnet.World.domain_name https in
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i d ->
      acc := !acc +. (Simnet.World.domain_weight d /. float_of_int (i + 1));
      cum.(i) <- !acc)
    https;
  let total = !acc in
  let tp_n = min tp_pool_size n in
  let tp_cum = Array.make tp_n 0.0 in
  let tp_acc = ref 0.0 in
  for i = 0 to tp_n - 1 do
    (* steeper head law: s = 1 over the pool positions, no weight
       expansion — third-party share concentrates on the top operators *)
    tp_acc := !tp_acc +. (1.0 /. float_of_int (i + 1));
    tp_cum.(i) <- !tp_acc
  done;
  let host_table =
    Array.to_list
      (Array.map
         (fun d ->
           ( Simnet.World.domain_name d,
             {
               Row.h_rank = Simnet.World.domain_rank d;
               h_weight = Simnet.World.domain_weight d;
               h_operator = Simnet.World.domain_operator d;
             } ))
         https)
  in
  { names; cum; total; tp_cum; tp_total = !tp_acc; host_table }

let hosts t = t.host_table

(* First index whose cumulative weight reaches [target]. *)
let search cum target =
  let lo = ref 0 and hi = ref (Array.length cum - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cum.(mid) < target then lo := mid + 1 else hi := mid
  done;
  !lo

let draw t rng ~cum ~total =
  let u = Crypto.Rng.float01 rng *. total in
  t.names.(search cum u)

type page = { p_primary : string; p_subresources : string list }

(* 0–4 third-party hosts per page, mean ~1.5 — a stylized page-weight
   distribution; the exact shape only needs a realistic mix of
   no-third-party and heavy pages. *)
let sub_count rng =
  Crypto.Rng.weighted rng [ (0.25, 0); (0.30, 1); (0.25, 2); (0.12, 3); (0.08, 4) ]

let page t rng =
  let p_primary = draw t rng ~cum:t.cum ~total:t.total in
  let k = sub_count rng in
  let subs = ref [] in
  for _ = 1 to k do
    let h = draw t rng ~cum:t.tp_cum ~total:t.tp_total in
    if h <> p_primary && not (List.mem h !subs) then subs := h :: !subs
  done;
  { p_primary; p_subresources = List.rev !subs }

(* The draw is capped as a float: [int_of_float] of a draw at or past
   2^62 (any draw at all under an infinite mean) is unspecified. *)
let pages_today rng ~mean ~max_pages =
  if mean <= 0.0 then 0
  else
    let draw = Crypto.Rng.exponential rng ~mean in
    if draw >= float_of_int max_pages then max_pages else int_of_float draw
