(** STEK lifecycle management — the paper's key variable (Section 4.3):
    the rotation policy determines how long one stolen 64-byte secret
    decrypts recorded traffic. A manager is shared wherever a STEK is
    shared (one domain's fleet, or every domain behind a terminator —
    Section 5.2). *)

type policy =
  | Static  (** pregenerated key file, never rotated (Fastly, Yandex, ...) *)
  | Per_process
      (** random STEK at process start, dead at restart (Apache/Nginx
          without a key file): the restart cadence is the rotation *)
  | Rotate_every of { period : int; accept_window : int }
      (** real rotation infrastructure (Twitter, CloudFlare daily, Google
          every 14h); old keys still decrypt for [accept_window] *)
  | Scheduled of int list
      (** administrator-driven rotation at the given epoch seconds
          (ascending), e.g. the Jack Henry cluster's single rotation after
          59 days *)

type t

val create : policy:policy -> secret:string -> now:int -> t
val policy : t -> policy

val id : t -> string
(** Stable identity of the shared key material (the derivation root):
    managers with equal ids issue and accept the same STEKs. Used by the
    campaign sharder to keep co-keyed domains on one worker. *)

val restart : t -> now:int -> unit
(** Simulated process restart: a [Per_process] manager forgets its key;
    the other policies survive. *)

val issuing : t -> now:int -> Stek.t
(** The STEK currently used to seal new tickets. *)

val find_for_decrypt : t -> now:int -> string -> Stek.t option
(** Resolve a ticket's key name; under rotation, keys within the accept
    window remain valid after they stop issuing. *)
