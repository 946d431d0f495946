(** Plain-text table rendering for benchmark reports.

    Used by the bench harness to print the paper's Table 1 layout and the
    time-lapse series of Figures 2 and 3 as aligned text. *)

type align = Left | Right

(** [render ~headers ~aligns rows] returns the table as a string, one row per
    line, columns padded to the widest cell, with a rule under the header. *)
let render ~headers ~aligns rows =
  let ncols = Array.length headers in
  if Array.length aligns <> ncols then invalid_arg "Tablefmt.render: aligns";
  List.iter
    (fun row ->
      if Array.length row <> ncols then invalid_arg "Tablefmt.render: row width")
    rows;
  let widths = Array.map String.length headers in
  List.iter
    (fun row ->
      Array.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    rows;
  let pad i cell =
    let n = widths.(i) - String.length cell in
    match aligns.(i) with
    | Left -> cell ^ String.make n ' '
    | Right -> String.make n ' ' ^ cell
  in
  let line row =
    String.concat "  " (Array.to_list (Array.mapi pad row))
  in
  let rule =
    String.concat "--"
      (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  String.concat "\n" (line headers :: rule :: List.map line rows)

(** Format a count in thousands with comma separators, like the paper's
    Table 1 ("1,482,035K"). *)
let thousands n =
  let k = n / 1000 in
  let s = string_of_int (abs k) in
  let buf = Buffer.create (String.length s + 4) in
  let len = String.length s in
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    s;
  (if k < 0 then "-" else "") ^ Buffer.contents buf ^ "K"

(** Signed percentage with two decimals, e.g. "+4.30%". *)
let pct_diff reference value =
  if reference = 0.0 then "n/a"
  else
    let d = (value -. reference) /. reference *. 100.0 in
    Printf.sprintf "%+.2f%%" d
