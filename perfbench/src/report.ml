type better = Higher | Lower

type metric = { name : string; unit : string; better : better; bound : float option }

let e2e name unit better bound = { name; unit; better; bound = Some bound }
let layer name unit better = { name; unit; better; bound = None }

(* Bounds: [ops_per_s] and [setup_s] time a program that shares its
   machine, so they get the widest. The virtual-time and message
   metrics vary only with the seed; DQVL's write p50 sits on a steep
   part of its distribution on lossy-failover and moves most. *)
let end_to_end =
  [
    e2e "ops_per_s" "ops/s" Higher 0.25;
    e2e "setup_s" "s" Lower 0.25;
    e2e "peak_heap_mb" "MiB" Lower 0.1;
    e2e "dqvl.read_p50_ms" "virtual_ms" Lower 0.1;
    e2e "dqvl.read_p99_ms" "virtual_ms" Lower 0.15;
    e2e "dqvl.write_p50_ms" "virtual_ms" Lower 0.2;
    e2e "dqvl.write_p99_ms" "virtual_ms" Lower 0.15;
    e2e "dqvl.msgs_per_op" "msgs" Lower 0.15;
  ]

let per_layer =
  [
    layer "registry.build_s" "s" Lower;
    layer "driver.simulate_s" "s" Lower;
    layer "driver.words_per_op" "words" Lower;
    layer "dqvl.simulate_ops_per_s" "ops/s" Higher;
    layer "majority.simulate_ops_per_s" "ops/s" Higher;
    layer "engine.events_per_op" "count" Lower;
    layer "engine.events_per_s" "events/s" Higher;
    layer "engine.words_per_event" "words" Lower;
    layer "engine.dispatch_ns" "ns" Lower;
    layer "engine.dispatch_words" "words" Lower;
    layer "net.remote_msgs_per_op" "msgs" Lower;
    layer "net.local_msgs_per_op" "msgs" Lower;
    layer "net.dropped_per_op" "msgs" Lower;
    layer "net.send_deliver_ns" "ns" Lower;
    layer "net.send_deliver_words" "words" Lower;
    layer "rpc.rounds_per_op" "count" Lower;
    layer "rpc.retry_share" "ratio" Lower;
    layer "rpc.give_ups" "count" Lower;
    layer "rpc.qrpc_round_ns" "ns" Lower;
    layer "oqs.read_hit_ratio" "ratio" Higher;
    layer "oqs.read_hit_ns" "ns" Lower;
    layer "lease.granted_per_op" "count" Lower;
    layer "lease.expired_per_op" "count" Lower;
    layer "iqs.inval_through_per_write" "count" Lower;
    layer "iqs.inval_suppressed_per_write" "count" Higher;
    layer "iqs.inval_delayed_per_write" "count" Lower;
    layer "iqs.write_ns" "ns" Lower;
    layer "recovery.duration_ms" "virtual_ms" Lower;
    layer "recovery.bytes" "bytes" Lower;
    layer "checker.check_s" "s" Lower;
    layer "checker.ns_per_op" "ns" Lower;
    layer "checker.words_per_op" "words" Lower;
    layer "checker.share" "ratio" Lower;
    layer "staleness.measure_s" "s" Lower;
    layer "staleness.share" "ratio" Lower;
    layer "telemetry.events_per_op" "count" Lower;
    layer "telemetry.metrics_sink_ns_per_event" "ns" Lower;
    layer "telemetry.aoi_sink_ns_per_event" "ns" Lower;
    layer "telemetry.trace_sink_ns_per_event" "ns" Lower;
    layer "telemetry.sink_share" "ratio" Lower;
    layer "trace.overhead" "ratio" Lower;
  ]

let find name =
  List.find_opt (fun m -> String.equal m.name name) (end_to_end @ per_layer)

(* The character classes of the benchmark definition format. *)
let all_chars ok s = String.for_all ok s

let is_alnum c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let valid_name s =
  String.length s >= 1
  && String.length s <= 64
  && is_alnum s.[0]
  && all_chars (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  String.length s >= 1
  && String.length s <= 16
  && all_chars (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-') s

(* {2 Percentiles} *)

type tail = { value : float; samples : int; beyond : int }

(* Linear interpolation between closest ranks, the same definition as
   [Dq_util.Stats.percentile]. [beyond] counts the samples ranked above
   the percentile's position: the tail the value rests on. *)
let percentile samples p =
  let sorted = Array.of_list samples in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  if n = 0 then { value = Float.nan; samples = 0; beyond = 0 }
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float rank in
    let hi = Stdlib.min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    let value = sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo))) in
    let beyond = n - int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    { value; samples = n; beyond }
  end

let median xs = (percentile xs 50.).value

(* {2 JSON} *)

(* The shortest decimal that reads back as the same float. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let exact digits = Printf.sprintf "%.*g" digits v in
    match List.find_opt (fun d -> Float.equal (float_of_string (exact d)) v) [ 15; 16 ] with
    | Some d -> exact d
    | None -> exact 17

let quote s = Printf.sprintf "%S" s

let result_line ~correct ~attempted ~failed values =
  let metric (m, v) =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (quote m.name) (number v) (quote m.unit)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", " (List.map metric values))

let benchmark_json ~command ~paths ~run_seconds ~workloads =
  let strings xs = "[" ^ String.concat ", " (List.map quote xs) ^ "]" in
  let better = function Higher -> "higher" | Lower -> "lower" in
  let block items = "[\n" ^ String.concat ",\n" items ^ "\n  ]" in
  let workload (name, why) = Printf.sprintf "    {\"name\": %s, \"why\": %s}" (quote name) (quote why) in
  let metric m =
    Printf.sprintf "    {\"name\": %s, \"unit\": %s, \"better\": %s%s}" (quote m.name) (quote m.unit)
      (quote (better m.better))
      (match m.bound with Some b -> Printf.sprintf ", \"bound\": %s" (number b) | None -> "")
  in
  String.concat ""
    [
      "{\n";
      Printf.sprintf "  \"command\": %s,\n" (strings command);
      Printf.sprintf "  \"paths\": %s,\n" (strings paths);
      Printf.sprintf "  \"run_seconds\": %d,\n" run_seconds;
      Printf.sprintf "  \"workloads\": %s,\n" (block (List.map workload workloads));
      Printf.sprintf "  \"end_to_end\": %s,\n" (block (List.map metric end_to_end));
      Printf.sprintf "  \"per_layer\": %s\n" (block (List.map metric per_layer));
      "}\n";
    ]
