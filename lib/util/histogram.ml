(* The logical histogram has [nbins] bins (the last is the overflow
   bin), but only the prefix up to the highest bin ever touched is
   backed: [bins] grows by doubling on demand and never past [nbins].
   Absent bins read as 0, so every reader sees the full logical shape. *)
type t = {
  bin_width : int;
  max_value : int;
  nbins : int;
  mutable bins : int array;
  mutable total : int;
}

let create ~bin_width ~max_value =
  assert (bin_width > 0 && max_value > 0);
  let n = (max_value + bin_width - 1) / bin_width in
  { bin_width; max_value; nbins = n + 1; bins = [||]; total = 0 }

let bin_of t v = if v >= t.max_value then t.nbins - 1 else v / t.bin_width

let[@inline] get t i = if i < Array.length t.bins then t.bins.(i) else 0

let grow t i =
  let len = ref (max 8 (Array.length t.bins)) in
  while !len <= i do
    len := 2 * !len
  done;
  (* A size past half the logical one would only be outgrown by the
     rest of the range (the overflow bin, typically): take it all. *)
  let bins = Array.make (if 2 * !len > t.nbins then t.nbins else !len) 0 in
  Array.blit t.bins 0 bins 0 (Array.length t.bins);
  t.bins <- bins

let add_many t v n =
  if v < 0 then invalid_arg "Histogram.add: negative sample";
  let i = bin_of t v in
  if i >= Array.length t.bins then grow t i;
  t.bins.(i) <- t.bins.(i) + n;
  t.total <- t.total + n

let add t v = add_many t v 1

let count t = t.total
let bin_count t = t.nbins

let bin_value t i =
  if i < 0 || i >= t.nbins then invalid_arg "index out of bounds";
  get t i

let bin_lower t i = i * t.bin_width

let bin_label t i =
  if i = t.nbins - 1 then Printf.sprintf "%d+" t.max_value
  else Printf.sprintf "%d-%d" (i * t.bin_width) (((i + 1) * t.bin_width) - 1)

(* Sum of bins [0, stop], clipped to the backed prefix. *)
let sum_to t stop =
  let acc = ref 0 in
  for i = 0 to min stop (Array.length t.bins - 1) do
    acc := !acc + t.bins.(i)
  done;
  !acc

let cumulative_at t v =
  if t.total = 0 then 0.0
  else float_of_int (sum_to t (bin_of t v)) /. float_of_int t.total

let fraction_below t v =
  if t.total = 0 then 0.0
  else if v <= 0 then 0.0
  else begin
    (* Whole bins strictly below v, plus a linear share of the bin
       containing v. *)
    let full = min (v / t.bin_width) (t.nbins - 1) in
    let partial =
      if full >= t.nbins - 1 then 0.0
      else
        let within = v - (full * t.bin_width) in
        float_of_int (get t full)
        *. float_of_int within /. float_of_int t.bin_width
    in
    (float_of_int (sum_to t (full - 1)) +. partial) /. float_of_int t.total
  end

let percentile t p =
  assert (p >= 0. && p <= 100.);
  if t.total = 0 then 0
  else begin
    (* Absent bins add nothing, so a target not reached within the
       backed prefix is not reached at all. *)
    let target = p /. 100. *. float_of_int t.total in
    let acc = ref 0.0 and result = ref t.max_value in
    (try
       for i = 0 to Array.length t.bins - 1 do
         acc := !acc +. float_of_int t.bins.(i);
         if !acc >= target then begin
           result := min t.max_value ((i + 1) * t.bin_width);
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end

let mode_bin t =
  let best = ref 0 in
  Array.iteri (fun i v -> if v > t.bins.(!best) then best := i) t.bins;
  !best

let iter t f =
  for i = 0 to t.nbins - 1 do
    let lower = i * t.bin_width in
    let upper = if i = t.nbins - 1 then None else Some ((i + 1) * t.bin_width) in
    f ~lower ~upper ~count:(get t i)
  done

let render ?(width = 50) ?(unit_label = "samples") t ppf =
  let max_count = Array.fold_left max 1 t.bins in
  Format.fprintf ppf "%12s  %-*s %10s  %s@." "range" width "" "count" "cum%";
  let running = ref 0 in
  for i = 0 to t.nbins - 1 do
    let c = get t i in
    running := !running + c;
    let bar = c * width / max_count in
    let cum =
      if t.total = 0 then 0.0
      else 100.0 *. float_of_int !running /. float_of_int t.total
    in
    Format.fprintf ppf "%12s  %-*s %10d  %5.1f@." (bin_label t i) width
      (String.make bar '#') c cum
  done;
  Format.fprintf ppf "total: %d %s@." t.total unit_label
