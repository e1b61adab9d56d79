(** Bounded retries with exponential backoff and deterministic jitter,
    accounted on the probe's private attempt clock (the shared scan
    clock never moves during retries). *)

type policy = {
  max_attempts : int;  (** total attempts, first included *)
  base_backoff : int;  (** seconds before the first retry *)
  multiplier : float;
  max_backoff : int;
  deadline : int;  (** give up once cumulative delay exceeds this *)
}

val default : policy
(** 3 attempts, 2s base backoff doubling, 60s deadline. *)

val backoff : policy -> key:string -> attempt:int -> int
(** Seconds to wait after failed [attempt] (0-based): the exponential
    schedule scaled by a deterministic jitter in [0.5, 1.5), at least
    1s. *)
