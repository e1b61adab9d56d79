(* The one worker pool behind every sharded runner (campaign shards,
   traffic shards, cross-vantage regions).

   Items [0 .. n-1] sit in an atomic claim queue; [jobs - 1] helper
   domains and the calling domain each claim the next unstarted item
   until the queue is dry. Callers order their items heaviest-first, so
   this is longest-processing-time work stealing: no worker idles while
   an item is unstarted. Item results go into caller-owned slots (one
   writer per slot), and [Domain.join] publishes those writes before
   [run] returns. With [jobs = 1] nothing is spawned and the caller
   drains the queue alone.

   If an item raises, the queue is closed so no worker starts another
   item, every helper is joined, and the first exception is re-raised
   from [run]: a failing run never leaves a domain still writing into
   spools behind the caller's back. *)

let default_jobs () = Domain.recommended_domain_count ()

let run ?jobs n f =
  let jobs = max 1 (min (Option.value jobs ~default:(default_jobs ())) n) in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      (try f i
       with e ->
         Atomic.set next n;
         raise e);
      work ()
    end
  in
  let outcome g = try Ok (g ()) with e -> Error (e, Printexc.get_raw_backtrace ()) in
  let helpers = List.init (jobs - 1) (fun _ -> Domain.spawn work) in
  let mine = outcome work in
  let theirs = List.map (fun d -> outcome (fun () -> Domain.join d)) helpers in
  List.iter
    (function Error (e, bt) -> Printexc.raise_with_backtrace e bt | Ok () -> ())
    (mine :: theirs)
