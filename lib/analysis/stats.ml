(* Weighted descriptive statistics for the analyses: empirical CDFs,
   percentiles and share-of-population counts. Weights are the sampling
   weights the world assigns (how many real Top Million domains a sampled
   domain represents), so weighted fractions estimate the fractions the
   paper reports. *)

type weighted = { value : float; weight : float }

let total_weight points = List.fold_left (fun acc p -> acc +. p.weight) 0.0 points

(* Weighted fraction of points satisfying a predicate. *)
let fraction points pred =
  let total = total_weight points in
  if total <= 0.0 then 0.0
  else
    List.fold_left (fun acc p -> if pred p.value then acc +. p.weight else acc) 0.0 points
    /. total

(* Horvitz-Thompson standard error of a weighted share. A share is a
   ratio Y/X of two HT totals, so its variance is that of the total of
   the residuals e = y - share over the population (Taylor
   linearization), divided by X^2. Only the uniform stratum varies:
   with n of its N = n * w units sampled, Var = N^2 (1 - n/N) s_e^2 / n,
   where s_e^2 is the residuals' sample variance over all n units, the
   ones outside the population contributing e = 0. *)
type design = { tail_sampled : int; tail_weight : float }
type estimate = { share : float; se : float }

let ht_share design points pred =
  let total = total_weight points in
  let share = fraction points pred in
  let n = float_of_int design.tail_sampled in
  if total <= 0.0 || n < 2.0 then { share; se = 0.0 }
  else begin
    let sum = ref 0.0 and sum_sq = ref 0.0 in
    List.iter
      (fun p ->
        if p.weight = design.tail_weight then begin
          let e = (if pred p.value then 1.0 else 0.0) -. share in
          sum := !sum +. e;
          sum_sq := !sum_sq +. (e *. e)
        end)
      points;
    let mean = !sum /. n in
    let s2 = Float.max 0.0 ((!sum_sq -. (n *. mean *. mean)) /. (n -. 1.0)) in
    let big_n = n *. design.tail_weight in
    let var = big_n *. big_n *. Float.max 0.0 (1.0 -. (n /. big_n)) *. s2 /. n /. (total *. total) in
    { share; se = sqrt var }
  end

(* An empirical CDF: sorted (value, cumulative fraction) steps. *)
type cdf = (float * float) list

let cdf points : cdf =
  let sorted = List.sort (fun a b -> compare a.value b.value) points in
  let total = total_weight sorted in
  if total <= 0.0 then []
  else begin
    let arr = Array.of_list sorted in
    let n = Array.length arr in
    (* Cumulative heights, then collapse duplicate values to their final
       height. Array-based and built back to front: stack depth stays
       O(1) at the million-point populations the north star calls for
       (the previous non-tail [dedup] overflowed there). *)
    let cum = Array.make n 0.0 in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. arr.(i).weight;
      cum.(i) <- !acc /. total
    done;
    let steps = ref [] in
    for i = n - 1 downto 0 do
      if i = n - 1 || arr.(i).value <> arr.(i + 1).value then
        steps := (arr.(i).value, cum.(i)) :: !steps
    done;
    !steps
  end

(* Fraction of mass at or below [x]. *)
let cdf_at (c : cdf) x =
  let rec go last = function
    | [] -> last
    | (v, f) :: rest -> if v <= x then go f rest else last
  in
  go 0.0 c

let percentile points q =
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.percentile: q out of range";
  let sorted = List.sort (fun a b -> compare a.value b.value) points in
  let total = total_weight sorted in
  if total <= 0.0 then nan
  else begin
    let target = q *. total in
    let rec go acc = function
      | [] -> nan
      | [ p ] -> p.value
      | p :: rest -> if acc +. p.weight >= target then p.value else go (acc +. p.weight) rest
    in
    go 0.0 sorted
  end

(* Multi-quantile in one sort + one walk. The walk reproduces
   [percentile]'s accumulation exactly: targets are served in ascending
   order against the same left-to-right prefix sums, and the first
   point whose cumulative weight reaches a target is non-decreasing in
   the target, so pausing the walk at each served target loses
   nothing. The terminal [p] fallback mirrors [percentile]'s. *)
let quantiles points qs =
  List.iter
    (fun q -> if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantiles: q out of range")
    qs;
  let sorted = List.sort (fun a b -> compare a.value b.value) points in
  let total = total_weight sorted in
  let n = List.length qs in
  if total <= 0.0 then List.map (fun _ -> nan) qs
  else begin
    let order = List.sort compare (List.mapi (fun i q -> (q *. total, i)) qs) in
    let out = Array.make n nan in
    let rec walk acc pts targets =
      match (targets, pts) with
      | [], _ | _, [] -> ()
      | (_, i) :: trest, [ p ] ->
          out.(i) <- p.value;
          walk acc pts trest
      | (target, i) :: trest, p :: rest ->
          if acc +. p.weight >= target then begin
            out.(i) <- p.value;
            walk acc pts trest
          end
          else walk (acc +. p.weight) rest targets
    in
    walk 0.0 sorted order;
    List.init n (Array.get out)
  end

let median points = percentile points 0.5

(* Weighted histogram over explicit bucket upper bounds (ascending); the
   final bucket is open-ended. Returns per-bucket weight. Bucket lookup
   is a binary search, not a linear rescan per point. *)
let histogram ~bounds points =
  let bounds_arr = Array.of_list bounds in
  let nb = Array.length bounds_arr in
  let buckets = Array.make (nb + 1) 0.0 in
  (* Smallest i with v <= bounds.(i), or nb for the open bucket (which
     also absorbs NaN, as the linear scan did). *)
  let bucket_of v =
    if nb = 0 || not (v <= bounds_arr.(nb - 1)) then nb
    else begin
      let lo = ref 0 and hi = ref (nb - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if v <= bounds_arr.(mid) then hi := mid else lo := mid + 1
      done;
      !lo
    end
  in
  List.iter
    (fun p ->
      let i = bucket_of p.value in
      buckets.(i) <- buckets.(i) +. p.weight)
    points;
  buckets

(* Human-readable durations for axis labels. *)
let duration_to_string seconds =
  let s = int_of_float seconds in
  if s < 60 then Printf.sprintf "%ds" s
  else if s < 3600 then Printf.sprintf "%dm" (s / 60)
  else if s < 86_400 then Printf.sprintf "%dh" (s / 3600)
  else Printf.sprintf "%dd" (s / 86_400)
