(* Shared hand-rolled JSON emission helpers for the telemetry sinks
   (metrics, AoI, trace). Output discipline: object keys in a fixed order,
   floats through [num] so documents are stable and diff-friendly for
   golden tests and the bench results differ. *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let num f =
  if Float.is_nan f || not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f

let counts buf name cs =
  Printf.ksprintf (Buffer.add_string buf) "%S: {" name;
  List.iteri
    (fun i (label, n) ->
      Printf.ksprintf (Buffer.add_string buf) "%s\"%s\": %d"
        (if i = 0 then "" else ", ")
        (escape label) n)
    cs;
  Buffer.add_string buf "}"

(* A histogram object: total count, quantiles through the one shared
   {!Dq_util.Histogram.quantile} path, then the bucket table. *)
let histogram buf name h =
  let q p = num (Dq_util.Histogram.quantile h p) in
  Printf.ksprintf (Buffer.add_string buf)
    "%S: {\"count\": %d, \"p50\": %s, \"p90\": %s, \"p99\": %s, \"buckets\": {" name
    (Dq_util.Histogram.count h)
    (q 0.5) (q 0.9) (q 0.99);
  List.iteri
    (fun i (label, n) ->
      Printf.ksprintf (Buffer.add_string buf) "%s\"%s\": %d"
        (if i = 0 then "" else ", ")
        (escape label) n)
    (Dq_util.Histogram.bucket_counts h);
  Buffer.add_string buf "}}"
