(** Bounded retries with exponential backoff and deterministic jitter,
    accounted on the probe's private attempt clock (the shared scan
    clock never moves during retries). *)

type policy = {
  max_attempts : int;  (** total attempts, first included *)
  deadline : int;  (** give up once cumulative delay exceeds this *)
}

val default : policy
(** 3 attempts, 60s deadline. *)

val backoff : key:string -> attempt:int -> int
(** Seconds to wait after failed [attempt] (0-based): a schedule that
    starts at 2s and doubles up to a 30s cap, scaled by a deterministic
    jitter in [0.5, 1.5), at least 1s. *)
