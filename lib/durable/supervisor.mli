(** Bounded-restart supervision for campaign workers. *)

exception Killed
(** Simulated whole-process death (SIGKILL analog) used by tests and
    chaos hooks. Never caught by {!supervised}: recovery from a kill is
    the resume path's job, not the in-process supervisor's. *)

exception Mismatch of string
(** A resumed run diverged from the state its run log recorded (wrong
    seed or world, code drift). A determinism-contract violation: it
    aborts the run, and {!supervised} re-raises it instead of retrying. *)

val mismatch : ('a, unit, string, 'b) format4 -> 'a
(** [mismatch fmt …] raises {!Mismatch} with a formatted message. *)

type policy = { max_restarts : int }

val default : policy
(** Two restarts — three attempts total — before a shard is abandoned. *)

val supervised :
  ?on_crash:(attempt:int -> exn -> unit) ->
  policy ->
  attempt:(int -> 'a) ->
  ('a, exn) result
(** [supervised policy ~attempt] runs [attempt 0]; if it raises, the
    exception is passed to [on_crash] and the work is re-run as
    [attempt 1], [attempt 2], … up to [policy.max_restarts] restarts.
    Returns [Error e] with the last exception once restarts are
    exhausted. {!Killed} and {!Mismatch} are re-raised
    immediately rather than absorbed. *)
