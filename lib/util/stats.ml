(* Samples are kept unboxed, in insertion order, in a buffer that
   doubles when full: one word per sample, and [add] allocates nothing
   in steady state. *)
type t = {
  mutable samples : Float.Array.t; (* [0, n) in insertion order *)
  mutable n : int;
  mutable total : float;
  mutable total_sq : float;
  mutable lo : float;
  mutable hi : float;
  mutable sorted : float array option; (* cache, invalidated by add *)
}

let create () =
  {
    samples = Float.Array.create 0;
    n = 0;
    total = 0.;
    total_sq = 0.;
    lo = nan;
    hi = nan;
    sorted = None;
  }

let add t x =
  if t.n = Float.Array.length t.samples then begin
    let grown = Float.Array.create (Stdlib.max 16 (2 * t.n)) in
    Float.Array.blit t.samples 0 grown 0 t.n;
    t.samples <- grown
  end;
  Float.Array.unsafe_set t.samples t.n x;
  t.n <- t.n + 1;
  t.total <- t.total +. x;
  t.total_sq <- t.total_sq +. (x *. x);
  if t.n = 1 then begin
    t.lo <- x;
    t.hi <- x
  end else begin
    if x < t.lo then t.lo <- x;
    if x > t.hi then t.hi <- x
  end;
  t.sorted <- None

let count t = t.n

let mean t = if t.n = 0 then nan else t.total /. float_of_int t.n

let stddev t =
  if t.n < 2 then 0.
  else
    let n = float_of_int t.n in
    let var = (t.total_sq -. (t.total *. t.total /. n)) /. (n -. 1.) in
    sqrt (Float.max 0. var)

let min t = t.lo
let max t = t.hi
let sum t = t.total

let sorted t =
  match t.sorted with
  | Some a -> a
  | None ->
    (* Sorted from newest to oldest, the order the samples were once
       kept in: [Array.sort] is not stable, and equal-comparing samples
       ([0.] and [-0.]) must land where they always did. *)
    let a = Array.init t.n (fun i -> Float.Array.get t.samples (t.n - 1 - i)) in
    Array.sort Float.compare a;
    t.sorted <- Some a;
    a

let percentile t p =
  if t.n = 0 then nan
  else begin
    assert (p >= 0. && p <= 100.);
    let a = sorted t in
    let n = Array.length a in
    if n = 1 then a.(0)
    else
      let rank = p /. 100. *. float_of_int (n - 1) in
      let lo_idx = int_of_float (Float.floor rank) in
      let hi_idx = Stdlib.min (lo_idx + 1) (n - 1) in
      let frac = rank -. float_of_int lo_idx in
      (a.(lo_idx) *. (1. -. frac)) +. (a.(hi_idx) *. frac)
  end

let median t = percentile t 50.

let to_list t = List.init t.n (Float.Array.get t.samples)

let merge a b =
  let t = create () in
  let add_all src =
    for i = 0 to src.n - 1 do
      add t (Float.Array.get src.samples i)
    done
  in
  add_all a;
  add_all b;
  t

let pp_summary ppf t =
  Format.fprintf ppf "mean=%.3f p50=%.3f p99=%.3f min=%.3f max=%.3f n=%d"
    (mean t) (median t) (percentile t 99.) (min t) (max t) (count t)
