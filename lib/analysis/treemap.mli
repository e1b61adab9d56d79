(** Data behind Figures 6-7: service groups sized by weighted domain
    count and classed by secret longevity, rendered as a table plus a
    proportional ASCII mosaic. *)

type longevity_class = Under_1d | D1_to_7 | D7_to_30 | Over_30d

val classify_days : float -> longevity_class
val class_label : longevity_class -> string

type cell = {
  label : string;
  weighted_size : float;
  sampled_size : int;
  median_longevity_days : float;
  longevity : longevity_class;
}

val cells : longevity_days:(string -> float option) -> Service_groups.group list -> cell list
(** [longevity_days] looks up a member domain's measured secret lifetime. *)

val render : cell list -> string
(** The 40 largest cells as one mosaic row about 72 characters wide,
    each cell's width proportional to its weighted size. *)
