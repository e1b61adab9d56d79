(* Named scan vantage points for the cross-regional worlds.

   The paper measured from one vantage; the cross-regional extension
   (after Alashwali et al.'s HTTPS-inconsistency study) probes the same
   population from several. A world is a pure function of
   [(config, region)]: the default region reproduces the paper's single
   vantage byte-for-byte, and every other region applies deterministic
   per-operator overrides on top of the same base profiles — so shard
   replicas and jobs-invariance carry over unchanged. *)

type t = string

(* The first region is the default vantage — the one the original study
   scanned from, and the one an archived row with an empty region is
   attributed to. *)
let all : t list = [ "us-east"; "eu-west"; "ap-south"; "sa-east"; "af-north" ]
let default_name : t = "us-east"
let is_valid r = List.mem r all
let names = String.concat " " all

(* First [n] regions, for `--regions N`. *)
let take n =
  if n < 1 || n > List.length all then
    invalid_arg (Printf.sprintf "Region.take: want 1..%d regions (got %d)" (List.length all) n);
  List.filteri (fun i _ -> i < n) all
