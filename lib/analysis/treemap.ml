(* Data behind Figures 6 and 7: service groups sized by (weighted) domain
   count and colored by secret longevity. The rendering is textual — a
   table plus a proportional ASCII mosaic — but carries the same
   information as the paper's treemaps: which groups are big, and which
   big groups hold their secrets dangerously long. *)

type longevity_class = Under_1d | D1_to_7 | D7_to_30 | Over_30d

let classify_days d =
  if d < 2.0 then Under_1d else if d < 7.0 then D1_to_7 else if d < 30.0 then D7_to_30 else Over_30d

let class_label = function
  | Under_1d -> "<1d"
  | D1_to_7 -> "1-7d"
  | D7_to_30 -> "7-30d"
  | Over_30d -> ">=30d"

(* The mosaic glyph encodes the longevity class: benign groups are light,
   long-lived ones solid (the paper's red). *)
let class_glyph = function
  | Under_1d -> '.'
  | D1_to_7 -> '+'
  | D7_to_30 -> 'x'
  | Over_30d -> '#'

type cell = {
  label : string;
  weighted_size : float;
  sampled_size : int;
  median_longevity_days : float;
  longevity : longevity_class;
}

(* Build cells from service groups and a per-domain longevity lookup
   (days). Groups whose members have no measured longevity get 0. *)
let cells ~longevity_days (groups : Service_groups.group list) =
  List.map
    (fun (g : Service_groups.group) ->
      let values =
        List.filter_map
          (fun m ->
            Option.map
              (fun d -> { Stats.value = d; weight = 1.0 })
              (longevity_days m))
          g.Service_groups.members
      in
      let median = if values = [] then 0.0 else Stats.median values in
      {
        label = g.Service_groups.label;
        weighted_size = g.Service_groups.weighted_size;
        sampled_size = g.Service_groups.sampled_size;
        median_longevity_days = median;
        longevity = classify_days median;
      })
    groups

(* The mosaic's width in characters, and the most groups it draws. *)
let width = 72
let max_cells = 40

(* One proportional-width mosaic row per size tier, largest first. *)
let render cells =
  let cells =
    List.sort (fun a b -> compare b.weighted_size a.weighted_size) cells
    |> List.filteri (fun i _ -> i < max_cells)
  in
  let total = List.fold_left (fun acc c -> acc +. c.weighted_size) 0.0 cells in
  if total <= 0.0 then "(no groups)"
  else begin
    let buf = Buffer.create 1024 in
    List.iter
      (fun c ->
        let w = max 1 (int_of_float (Float.round (c.weighted_size /. total *. float_of_int width))) in
        Buffer.add_string buf (String.make w (class_glyph c.longevity));
        Buffer.add_char buf '|')
      cells;
    Buffer.add_string buf "\n  legend: . <1d   + 1-7d   x 7-30d   # >=30d  (width ~ weighted domains)";
    Buffer.contents buf
  end
