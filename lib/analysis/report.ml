(* Plain-text rendering: aligned tables and ASCII CDF plots, used by the
   bench harness to print every table and figure of the paper. *)

let pad width s =
  let n = String.length s in
  if n >= width then s else s ^ String.make (width - n) ' '

let pad_left width s =
  let n = String.length s in
  if n >= width then s else String.make (width - n) ' ' ^ s

(* [table ~headers rows] renders an aligned table; numeric-looking cells
   are right-aligned. *)
let table ~headers ~rows =
  let all = headers :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let cell r i = match List.nth_opt r i with Some c -> c | None -> "" in
  let widths =
    List.init ncols (fun i ->
        List.fold_left (fun acc r -> max acc (String.length (cell r i))) 0 all)
  in
  let numeric s =
    s <> "" && String.for_all (fun c -> (c >= '0' && c <= '9') || List.mem c [ '.'; ','; '%'; '-'; '+' ]) s
  in
  let render_row r =
    String.concat "  "
      (List.mapi
         (fun i w ->
           let c = cell r i in
           if numeric c then pad_left w c else pad w c)
         widths)
  in
  let sep = String.concat "  " (List.map (fun w -> String.make w '-') widths) in
  String.concat "\n" (render_row headers :: sep :: List.map render_row rows)

let fmt_pct f = Printf.sprintf "%.1f%%" (100.0 *. f)
let fmt_count f = Printf.sprintf "%.0f" f
let fmt_float ?(digits = 1) f = Printf.sprintf "%.*f" digits f

(* ASCII CDF: x positions are the given labeled ticks (log-ish axes in
   the paper), the curve is the cumulative fraction at each tick. *)
let ascii_cdf ?(height = 12) ~ticks (c : Stats.cdf) =
  let fractions = List.map (fun (x, _) -> Stats.cdf_at c x) ticks in
  let buf = Buffer.create 1024 in
  for row = height downto 1 do
    let level = float_of_int row /. float_of_int height in
    let prev_level = float_of_int (row - 1) /. float_of_int height in
    Buffer.add_string buf (Printf.sprintf "%3.0f%% |" (100.0 *. level));
    List.iter
      (fun f ->
        let ch = if f >= level then '#' else if f > prev_level then ':' else ' ' in
        Buffer.add_string buf (Printf.sprintf "  %c  " ch))
      fractions;
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf "     +";
  List.iter (fun _ -> Buffer.add_string buf "-----") ticks;
  Buffer.add_char buf '\n';
  Buffer.add_string buf "      ";
  List.iter (fun (_, label) -> Buffer.add_string buf (pad 5 label)) ticks;
  Buffer.contents buf

let section title =
  let bar = String.make (String.length title + 4) '=' in
  Printf.sprintf "\n%s\n= %s =\n%s" bar title bar
