(* Fixed reference load for perfbench: the host's speed is measured with it
   alongside every timed operation, and timings are scaled by it.

   The program's time is dominated by allocation and a few-MiB live heap, and
   on a shared host that kind of work slows down with memory contention far
   more than pure arithmetic does. So the reference has the same shape: short-
   lived lists promoted into a hashtable that keeps ~4 MiB live. It must never
   change, or timings scaled by it stop being comparable.

   Usage: calib.exe ITERATIONS   (prints a checksum of the final table) *)

let () =
  let n = int_of_string Sys.argv.(1) in
  let tbl = Hashtbl.create 4096 in
  let acc = ref 0 in
  for i = 1 to n do
    let l = List.init 16 (fun j -> (i * 31 + j) land 0xffff) in
    let s = List.fold_left (fun a x -> (a * 1000003) lxor x) !acc l in
    Hashtbl.replace tbl (i land 8191) (s, l);
    acc := s
  done;
  Printf.printf "%d %d\n" (Hashtbl.length tbl) (!acc land 0xffffff)
