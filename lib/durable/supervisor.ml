(* Bounded-restart supervision for campaign workers.

   A shard that raises mid-scan should not take the whole campaign down:
   the supervisor catches the exception, reports it, and re-runs the
   shard up to a bounded number of restarts. Two exceptions deliberately
   punch through:

   - [Killed] models whole-process death (used by tests and the chaos
     hook to simulate SIGKILL) — a supervisor that "survived" a kill
     would be lying about what crash-recovery covers;
   - [Mismatch] means determinism itself is broken, and retrying a
     nondeterministic shard would only launder the bug. *)

exception Killed
exception Mismatch of string

let mismatch fmt = Printf.ksprintf (fun s -> raise (Mismatch s)) fmt

type policy = { max_restarts : int }

let default = { max_restarts = 2 }

let supervised ?(on_crash = fun ~attempt:_ _ -> ()) policy ~attempt:f =
  let rec go attempt =
    match f attempt with
    | v -> Ok v
    | exception ((Killed | Mismatch _) as e) -> raise e
    | exception e ->
        on_crash ~attempt e;
        if attempt < policy.max_restarts then go (attempt + 1) else Error e
  in
  go 0
