(* Fixed-width ASCII tables for relations — CLI and example output. *)

let cell_of_value = Value.to_string

let table ~columns bag =
  let rows =
    (* One reversed accumulation per row instead of a copying append of
       the count cell — rendering stays linear in the column count. *)
    List.map
      (fun (t, n) ->
        let count = if n = 1 then "" else Printf.sprintf "x%+d" n in
        List.rev (count :: List.rev_map cell_of_value (Tuple.to_list t)))
      (Bag.to_counted_list bag)
  in
  let columns = columns @ [ "#" ] in
  let ncols = List.length columns in
  let widths = Array.make ncols 0 in
  let measure cells =
    List.iteri
      (fun i cell ->
        if i < ncols then widths.(i) <- max widths.(i) (String.length cell))
      cells
  in
  measure columns;
  List.iter measure rows;
  let buf = Buffer.create 256 in
  let pad i cell =
    let w = if i < ncols then widths.(i) else String.length cell in
    cell ^ String.make (max 0 (w - String.length cell)) ' '
  in
  let emit_row cells =
    Buffer.add_string buf "| ";
    Buffer.add_string buf (String.concat " | " (List.mapi pad cells));
    Buffer.add_string buf " |\n"
  in
  let rule () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w -> Buffer.add_string buf (String.make (w + 2) '-' ^ "+"))
      widths;
    Buffer.add_char buf '\n'
  in
  rule ();
  emit_row columns;
  rule ();
  if rows = [] then emit_row (List.init ncols (fun _ -> ""))
  else List.iter emit_row rows;
  rule ();
  Buffer.contents buf

let view_table (v : View.t) bag = table ~columns:(View.output_attr_names v) bag
