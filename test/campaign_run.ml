(* A campaign run the way [tlsharm campaign -o] runs one: the scanner
   writes its run log to a temporary directory, and the campaign is read
   back from the log before the directory goes. Shared by the test
   executables that need a campaign's rows. *)

let manifest world ~days =
  let start_day = Simnet.Clock.now (Simnet.World.clock world) / Simnet.Clock.day in
  [ ("start_day", string_of_int start_day); ("n_days", string_of_int days) ]

let run ?jobs ?injector ?retry ?funnel ?obs world ~days =
  match
    Scanner.Stream_sink.with_sink ~manifest:(manifest world ~days) (fun sink ->
        Scanner.Parallel_campaign.run ?jobs ?injector ?retry ?funnel ~sink ?obs world ~days ();
        Scanner.Daily_scan.load_stream (Scanner.Stream_sink.dir sink))
  with
  | Ok campaign -> campaign
  | Error e -> failwith e
