let () = ignore (let open Fixture in via_open 3)
