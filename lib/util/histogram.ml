(* [lo] and [hi] are the smallest and largest sample added, so a
   quantile never reports a value outside the samples seen. *)
type t = {
  bounds : float array;
  counts : int array;
  mutable total : int;
  mutable lo : float;
  mutable hi : float;
}

let create ~buckets =
  let bounds = Array.of_list buckets in
  let sorted = Array.copy bounds in
  Array.sort Float.compare sorted;
  if not (Array.for_all2 Float.equal bounds sorted) then
    invalid_arg "Histogram.create: buckets must be ascending";
  {
    bounds;
    counts = Array.make (Array.length bounds + 1) 0;
    total = 0;
    lo = infinity;
    hi = neg_infinity;
  }

let add t x =
  let n = Array.length t.bounds in
  let rec find i = if i >= n || x < t.bounds.(i) then i else find (i + 1) in
  let i = find 0 in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1;
  if x < t.lo then t.lo <- x;
  if x > t.hi then t.hi <- x

let of_samples ~buckets samples =
  let t = create ~buckets in
  List.iter (add t) samples;
  t

let count t = t.total

(* The single quantile/interpolation code path: every bucket-histogram
   quantile in the tree (the metrics sink's latency histograms, the AoI sink's age
   and staleness distributions) goes through here, so percentile
   semantics can never drift between reporters. Linear interpolation
   within the bucket holding the target rank; bucket 0 interpolates
   from 0 (all tracked quantities are non-negative), and the open
   overflow bucket reports its lower edge (the last finite bound).
   The result is then clamped into the range of the samples seen. *)
let quantile t q =
  if q < 0. || q > 1. then invalid_arg "Histogram.quantile: q must be in [0, 1]";
  if t.total = 0 then nan
  else begin
    let n = Array.length t.bounds in
    let target = q *. float_of_int t.total in
    let rec go i seen =
      if i > n then t.bounds.(n - 1)
      else
        let seen' = seen +. float_of_int t.counts.(i) in
        if seen' >= target && t.counts.(i) > 0 then
          if i = n then if n = 0 then 0. else t.bounds.(n - 1)
          else begin
            let lo = if i = 0 then 0. else t.bounds.(i - 1) in
            let hi = t.bounds.(i) in
            let frac = (target -. seen) /. float_of_int t.counts.(i) in
            lo +. ((hi -. lo) *. Float.max 0. frac)
          end
        else go (i + 1) seen'
    in
    Float.min t.hi (Float.max t.lo (go 0 0.))
  end

let label t i =
  let n = Array.length t.bounds in
  if n = 0 then "all"
  else if i = 0 then Printf.sprintf "< %g" t.bounds.(0)
  else if i = n then Printf.sprintf ">= %g" t.bounds.(n - 1)
  else Printf.sprintf "%g - %g" t.bounds.(i - 1) t.bounds.(i)

let bucket_counts t = Array.to_list (Array.mapi (fun i c -> (label t i, c)) t.counts)

let render ?(width = 40) t =
  if t.total = 0 then "(no samples)\n"
  else begin
    let biggest = Array.fold_left Stdlib.max 1 t.counts in
    let label_width =
      Array.to_list (Array.mapi (fun i _ -> String.length (label t i)) t.counts)
      |> List.fold_left Stdlib.max 0
    in
    let buf = Buffer.create 256 in
    Array.iteri
      (fun i c ->
        let bar = String.make (c * width / biggest) '#' in
        Buffer.add_string buf
          (Printf.sprintf "%-*s | %-*s %d\n" label_width (label t i) width bar c))
      t.counts;
    Buffer.contents buf
  end
