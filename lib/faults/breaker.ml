(* Per-operator circuit breaker: an adaptive retry budget for peers that
   keep misbehaving.

   A probe normally gets the full retry budget. Once an operator racks
   up [threshold] consecutive injected-fault failures, the breaker opens
   and the next [cooldown] probes against that operator get a budget of
   one attempt each — enough to notice recovery, cheap enough that a
   persistently byzantine operator can no longer spend
   max_attempts * backoff of campaign time per domain. Any success (or a
   world-level ground-truth failure, which says the *network* answered
   definitively) snaps the breaker closed.

   Determinism: state advances only on [attempts_allowed]/[record]
   calls, which the scan path makes in per-shard probe order. Operators
   never span shards (shards are connectivity-closed), so the
   per-operator call sequence — and therefore every budget decision — is
   identical at any worker count, and a resume's re-run rebuilds the
   same state by re-executing the same sequence. *)

type cell = { mutable consecutive : int; mutable open_left : int }

type t = (string, cell) Hashtbl.t (* by operator *)

let threshold = 5
let cooldown = 25

let create () = Hashtbl.create 64

let cell t operator =
  match Hashtbl.find_opt t operator with
  | Some c -> c
  | None ->
      let c = { consecutive = 0; open_left = 0 } in
      Hashtbl.replace t operator c;
      c

let is_open t ~operator =
  match Hashtbl.find_opt t operator with
  | Some c -> c.open_left > 0
  | None -> false

(* The retry budget for the next probe against [operator]; consumes one
   tick of an open breaker's cooldown, so call it exactly once per
   probe. *)
let attempts_allowed t ~operator ~max_attempts =
  let c = cell t operator in
  if c.open_left > 0 then begin
    c.open_left <- c.open_left - 1;
    1
  end
  else max_attempts

(* Record a probe outcome. Only injected-fault exhaustion counts as a
   breaker failure: a world-level error (NXDOMAIN, no HTTPS, the
   endpoint's own loss coin) is ground truth about the target, not
   evidence the operator is wasting our retries. *)
let record t ~operator outcome =
  let c = cell t operator in
  match outcome with
  | Ok () ->
      c.consecutive <- 0;
      c.open_left <- 0
  | Error fault ->
      if Fault.is_injected fault then begin
        c.consecutive <- c.consecutive + 1;
        if c.consecutive >= threshold then c.open_left <- cooldown
      end
      else begin
        c.consecutive <- 0;
        c.open_left <- 0
      end
