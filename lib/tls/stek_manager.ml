(* STEK lifecycle management. The rotation policy is the paper's key
   variable (Section 4.3): it determines how long a single stolen 64-byte
   secret can decrypt recorded traffic.

   Policies mirror the deployments the paper observed:
   - [Static]          — a pregenerated key file, never rotated (Fastly,
                         Yandex, the Jack Henry banking cluster, ...).
   - [Per_process]     — random STEK at process start, lives until the
                         process restarts (Apache/Nginx without a key
                         file); the effective lifetime is the restart
                         cadence.
   - [Rotate_every]    — custom rotation infrastructure (Twitter,
                         CloudFlare daily, Google every 14h), with an
                         [accept_window] of old keys still honored for
                         ticket decryption after they stop issuing.

   Rotation is epoch-aligned and derives each period's key
   deterministically from a secret, which models fleet-wide synchronized
   rotation: every server sharing the secret agrees on the current STEK
   without coordination. A manager is shared wherever a STEK is shared —
   across the server farm of one domain or across every domain behind an
   SSL terminator (Section 5.2). *)

type policy =
  | Static
  | Per_process
  | Rotate_every of { period : int; accept_window : int }
  | Scheduled of int list
      (* Administrator-driven rotation at the given epoch seconds
         (ascending); used to seed case-study domains with the exact
         rotation days the paper observed, e.g. the Jack Henry banking
         cluster rotating once after 59 days. *)

type t = {
  policy : policy;
  secret : string; (* root secret for derivation *)
  mutable process_stek : Stek.t option; (* for Static / Per_process *)
  mutable process_started_at : int;
  origin : int; (* creation time: start of the first [Scheduled] interval *)
  mutable recent : (int * Stek.t) list;
      (* [Rotate_every] / [Scheduled]: the derived STEKs of the newest
         period seen and of the one before it *)
}

let create ~policy ~secret ~now =
  { policy; secret; process_stek = None; process_started_at = now; origin = now; recent = [] }

let policy t = t.policy

(* Stable identity of the shared key material: two managers with the same
   id derive the same STEKs. The campaign sharder keys on this. *)
let id t = t.secret

(* Simulate a server process restart: a [Per_process] manager forgets its
   STEK and generates a fresh one on next use; [Static] reloads the same
   key file, so nothing changes. *)
let restart t ~now =
  t.process_started_at <- now;
  match t.policy with
  | Per_process -> t.process_stek <- None
  | Static | Rotate_every _ | Scheduled _ -> ()

let process_key t ~label =
  match t.process_stek with
  | Some stek -> stek
  | None ->
      (* The key conceptually exists from the moment the process came up,
         not from whichever probe first touched it — stamp [created_at]
         with the process start so exposure windows measure from there. *)
      let stek =
        Stek.derive ~secret:(t.secret ^ label) ~period:t.process_started_at
          ~now:t.process_started_at
      in
      t.process_stek <- Some stek;
      stek

(* Index of the schedule interval containing [now]: 0 before the first
   boundary, k after the k-th. *)
let schedule_interval boundaries ~now =
  let rec go i = function
    | [] -> i
    | b :: rest -> if now < b then i else go (i + 1) rest
  in
  go 0 boundaries

(* Start of schedule interval [k]: the (k-1)-th rotation boundary, or the
   manager's creation time before the first rotation. Mirrors how
   [Rotate_every] stamps keys with the start of their issue period rather
   than whatever probe time first touched them. *)
let scheduled_interval_start t boundaries k =
  if k = 0 then t.origin else List.nth boundaries (k - 1)

(* The STEK of rotation period [k], stamped [created_at] (a function of
   [k] under each policy). A derivation is a fresh [Rng], 64 bytes, an
   AES schedule and HMAC midstates, and every ticket sealed or opened
   asks for one, so the newest period seen and the one before it (the
   common decrypt candidates) are kept; an older period is derived
   afresh each time and not kept. *)
let derived t k ~created_at =
  match List.assoc_opt k t.recent with
  | Some stek -> stek
  | None ->
      let stek = Stek.derive ~secret:t.secret ~period:k ~now:created_at in
      let newest = List.fold_left (fun m (p, _) -> max m p) k t.recent in
      t.recent <- List.filter (fun (p, _) -> p >= newest - 1) ((k, stek) :: t.recent);
      stek

(* The STEK currently used to *issue* tickets. *)
let issuing t ~now =
  match t.policy with
  | Static -> process_key t ~label:":static"
  | Per_process -> process_key t ~label:Printf.(sprintf ":proc:%d" t.process_started_at)
  | Rotate_every { period; _ } -> derived t (now / period) ~created_at:(now / period * period)
  | Scheduled boundaries ->
      let k = schedule_interval boundaries ~now in
      derived t k ~created_at:(scheduled_interval_start t boundaries k)

(* Resolve a key name for ticket decryption. Under rotation, keys from the
   accept window remain valid after they stop issuing. *)
let find_for_decrypt t ~now key_name =
  match t.policy with
  | Static | Per_process ->
      let stek = issuing t ~now in
      if String.equal (Stek.key_name stek) key_name then Some stek else None
  | Scheduled boundaries ->
      (* Current and immediately previous administrative key both work. *)
      let current = schedule_interval boundaries ~now in
      let candidates =
        if current = 0 then [ current ] else [ current; current - 1 ]
      in
      List.find_map
        (fun period ->
          let candidate =
            derived t period ~created_at:(scheduled_interval_start t boundaries period)
          in
          if String.equal (Stek.key_name candidate) key_name then Some candidate else None)
        candidates
  | Rotate_every { period; accept_window } ->
      let current = now / period in
      let periods_back = (accept_window + period - 1) / period in
      let rec scan k =
        if k > periods_back then None
        else
          (* Stamp with the candidate's own period start, exactly as the
             issuing path did when it minted the key — a window key
             stamped with the *decrypt* time would claim a later birth
             than the ticket it protects. *)
          let candidate = derived t (current - k) ~created_at:((current - k) * period) in
          if String.equal (Stek.key_name candidate) key_name then Some candidate else scan (k + 1)
      in
      scan 0
