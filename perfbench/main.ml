(* The repository's benchmark: the real replication protocols, from the
   first issued client operation to the checker's verdict.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --spec        # prints BENCHMARK.json

   --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
   ones. Every pass is checked; a failed check exits 1 without a
   result. The last line of standard output is the JSON result. *)

open Perfbench
module Driver = Dq_harness.Driver
module Stats = Dq_util.Stats
module Aoi = Dq_telemetry.Aoi
module Metrics = Dq_telemetry.Metrics
module Trace = Dq_telemetry.Trace

(* One set-up takes tens to hundreds of microseconds, so [setup_s] is a
   median over many, timed one by one: [setup_reps] before every pass,
   so the samples spread over the whole run like the passes do. *)
let setup_reps = 8

(* Time kept back in a traced run for the microbenchmarks and sink
   replays: eight measurements of [micro_budget_s] each, plus slack. *)
let micro_budget_s = 0.25

let micro_reserve_s = 3.

let replay_limit = 30_000

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: check failed: " ^ msg);
      exit 1)
    fmt

type args = { workload : Workload.t; seed : int64; seconds : float; trace : bool }

let usage () =
  prerr_endline
    "usage: main.exe --workload (edge-read|hot-key|lossy-failover) --seed N --seconds S --trace \
     0|1\n       main.exe --spec";
  exit 2

let parse argv =
  let rec go acc = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key -> go ((key, value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = go [] (List.tl (Array.to_list argv)) in
  let get key = match List.assoc_opt key opts with Some v -> v | None -> usage () in
  let workload = match Workload.find (get "--workload") with Some w -> w | None -> usage () in
  let seed = match Int64.of_string_opt (get "--seed") with Some s -> s | None -> usage () in
  let seconds =
    match float_of_string_opt (get "--seconds") with
    | Some s when s > 0. -> s
    | Some _ | None -> usage ()
  in
  let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
  { workload; seed; seconds; trace }

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs

let isum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let issued (r : Workload.run) = r.result.Driver.issued

let regular protocol = not (String.equal protocol "rowa-async")

let run_of protocol (it : Workload.iteration) =
  List.find (fun (r : Workload.run) -> String.equal r.protocol protocol) it.runs

(* Every workload lists DQVL first. *)
let dqvl_run (it : Workload.iteration) = List.hd it.runs

(* {2 Correctness gate} *)

let gate (it : Workload.iteration) =
  List.iter
    (fun (r : Workload.run) ->
      let res = r.result in
      if res.Driver.issued <> res.Driver.completed + res.Driver.failed then
        fail "%s: issued %d <> completed %d + failed %d" r.protocol res.Driver.issued
          res.Driver.completed res.Driver.failed;
      if regular r.protocol && r.violations > 0 then
        fail "%s: %d regular-semantics violations" r.protocol r.violations;
      match r.aoi with
      | Some aoi ->
        if
          aoi.Aoi.reads_checked <> r.reads_checked
          || aoi.Aoi.stale_reads <> r.stale_reads
          || aoi.Aoi.max_versions_behind <> r.max_versions_behind
        then
          fail "%s: Aoi sink disagrees with the Staleness oracle (reads %d/%d, stale %d/%d)"
            r.protocol aoi.Aoi.reads_checked r.reads_checked aoi.Aoi.stale_reads r.stale_reads
      | None -> ())
    it.runs

let tail name samples p =
  let t = Report.percentile samples p in
  if t.Report.beyond < 10 then
    fail "%s: p%g has %d samples beyond it (of %d), fewer than 10" name p t.Report.beyond
      t.Report.samples;
  t

(* {2 Output} *)

let print_protocols (it : Workload.iteration) =
  Printf.printf "%-15s %7s %7s %6s %5s %6s %8s %19s %19s %9s %7s %7s %7s\n" "protocol" "issued"
    "done" "failed" "viol" "stale" "msgs/op" "read p50/p99 (n)" "write p50/p99 (n)" "events"
    "sim_s" "check_s" "stale_s";
  List.iter
    (fun (r : Workload.run) ->
      let res = r.result in
      let lat stats =
        let xs = Stats.to_list stats in
        Printf.sprintf "%.1f/%.1f (%d)" (Report.percentile xs 50.).Report.value
          (Report.percentile xs 99.).Report.value (List.length xs)
      in
      Printf.printf "%-15s %7d %7d %6d %5d %6d %8.2f %19s %19s %9d %7.3f %7.3f %7.3f\n" r.protocol
        res.Driver.issued res.Driver.completed res.Driver.failed r.violations r.stale_reads
        res.Driver.messages_per_request (lat res.Driver.read_latency)
        (lat res.Driver.write_latency) r.events r.simulate_s r.check_s r.staleness_s)
    it.runs;
  List.iter
    (fun (r : Workload.run) ->
      if not (regular r.protocol) then
        Printf.printf "%s: %d stale reads (%d regular-semantics violations), reported, not failed\n"
          r.protocol r.stale_reads r.violations)
    it.runs

let finish ~attempted ~failed values =
  List.iter
    (fun ((m : Report.metric), v) ->
      if not (Float.is_finite v) then fail "metric %s is not a finite number" m.Report.name;
      Printf.printf "  %-40s %22s %s\n" m.Report.name (Report.number v) m.Report.unit)
    values;
  print_endline (Report.result_line ~correct:true ~attempted ~failed values)

let with_metric_table table assoc =
  List.map
    (fun (m : Report.metric) ->
      match List.assoc_opt m.Report.name assoc with
      | Some v -> (m, v)
      | None -> fail "metric %s was not measured" m.Report.name)
    table

(* {2 Passes} *)

(* [phases_s] holds each protocol's simulate, check and staleness times,
   in the workload's protocol order. *)
type pass = {
  ops_per_s : float;
  completed : int;
  phases_s : float list;
  wall_s : float;
  attempted : int;
  failed : int;
}

let pass_of (it : Workload.iteration) =
  {
    ops_per_s = Workload.ops_per_s it;
    completed = Workload.completed it;
    phases_s =
      List.concat_map (fun (r : Workload.run) -> [ r.simulate_s; r.check_s; r.staleness_s ]) it.runs;
    wall_s = it.setup.Workload.setup_s +. it.measure_s;
    attempted = isum issued it.runs;
    failed = isum (fun (r : Workload.run) -> r.result.Driver.failed) it.runs;
  }

(* Every pass does the same deterministic work from a collected heap,
   so passes differ only by how much other tenants of the machine slow
   them, in spells lasting from under a second to a whole run. A phase
   lasts 0.01 to 2 s, so most phases run undisturbed in some pass even
   where no whole pass escaped every spell. The rate is one pass's ops
   over the sum of each phase's fastest time. *)
let best passes =
  match passes with
  | [] -> 0.
  | first :: rest ->
    let fastest =
      List.fold_left (fun acc p -> List.map2 Float.min acc p.phases_s) first.phases_s rest
    in
    float_of_int first.completed /. List.fold_left ( +. ) 0. fastest

let print_passes label passes =
  let rates = List.map (fun p -> p.ops_per_s) passes in
  Printf.printf "%s passes, ops/s: %s (median %.0f, best %.0f)\n" label
    (String.concat " " (List.map (Printf.sprintf "%.0f") rates))
    (Report.median rates) (best passes);
  List.iter
    (fun p ->
      Printf.printf "  phases_s: %s\n"
        (String.concat " " (List.map (Printf.sprintf "%.3f") p.phases_s)))
    passes

(* Each sample is (set-up seconds, of which builds). *)
let setup_samples ?spans (args : args) =
  List.init setup_reps (fun _ ->
      let s = Workload.setup ?spans ~traced:false args.workload ~seed:args.seed in
      (s.Workload.setup_s, s.Workload.build_s))

(* Set-up samples, then one pass, checked: the gate, plus equality of
   everything computed in virtual time with the first pass. *)
let checked_pass ?spans ?record ~traced ~reference (args : args) =
  let setups = setup_samples ?spans args in
  let it = Workload.iterate ?spans ?record ~traced args.workload ~seed:args.seed in
  gate it;
  if not (Digest.equal (Workload.fingerprint it) reference) then
    fail "%s pass differs in virtual time from the first pass"
      (if traced then "a traced" else "an untraced");
  (setups, it)

(* The first pass: checked and reported. Only numbers leave this
   function, so the passes after it start from the same heap. *)
let first_pass (args : args) =
  let setups = setup_samples args in
  let it = Workload.iterate ~traced:false args.workload ~seed:args.seed in
  gate it;
  print_protocols it;
  let dqvl = dqvl_run it in
  let reads = Stats.to_list dqvl.result.Driver.read_latency in
  let writes = Stats.to_list dqvl.result.Driver.write_latency in
  let read99 = tail "dqvl read" reads 99. and write99 = tail "dqvl write" writes 99. in
  Printf.printf "dqvl samples: %d reads, %d writes\n" read99.Report.samples write99.Report.samples;
  let virtual_metrics =
    [
      ("dqvl.read_p50_ms", (tail "dqvl read" reads 50.).Report.value);
      ("dqvl.read_p99_ms", read99.Report.value);
      ("dqvl.write_p50_ms", (tail "dqvl write" writes 50.).Report.value);
      ("dqvl.write_p99_ms", write99.Report.value);
      ("dqvl.msgs_per_op", dqvl.result.Driver.messages_per_request);
    ]
  in
  (setups, pass_of it, Workload.fingerprint it, virtual_metrics)

(* Keep starting passes while the next one, as long as the median pass
   so far, still ends within [deadline] seconds of [t0]. *)
let fits ~t0 ~deadline passes =
  Wall.now () -. t0 +. Report.median (List.map (fun p -> p.wall_s) passes) <= deadline

let untraced (args : args) =
  let t0 = Wall.now () in
  let setups, first, reference, virtual_metrics = first_pass args in
  (* The heap peak of one pass from a fresh process: later passes reuse
     the heap, and how many of them fit depends on the machine. *)
  let peak_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let rec more setups passes =
    if not (fits ~t0 ~deadline:args.seconds passes) then (setups, List.rev passes)
    else begin
      let s, it = checked_pass ~traced:false ~reference args in
      more (s @ setups) (pass_of it :: passes)
    end
  in
  let setups, passes = more setups [ first ] in
  print_passes "untraced" passes;
  let attempted = isum (fun p -> p.attempted) passes in
  let failed = isum (fun p -> p.failed) passes in
  Printf.printf "%d passes in %.1f s; ops issued %d, failed %d\n" (List.length passes)
    (Wall.now () -. t0) attempted failed;
  finish ~attempted ~failed
    (with_metric_table Report.end_to_end
       ([
          ("ops_per_s", best passes);
          ("setup_s", Report.median (List.map fst setups));
          ("peak_heap_mb", float_of_int (peak_heap_words * (Sys.word_size / 8)) /. 1048576.);
        ]
       @ virtual_metrics))

(* {2 Traced run} *)

(* Per-layer values of one traced pass. Counts repeat exactly across
   passes; times are reduced to medians afterwards. *)
let layer_values (it : Workload.iteration) =
  let runs = it.runs in
  let counts (r : Workload.run) =
    match r.counts with Some c -> c | None -> fail "traced pass without counts"
  in
  let total = List.fold_left (fun acc r -> Counts.add acc (counts r)) (Counts.create ()) runs in
  let dqvl = dqvl_run it in
  let dc = counts dqvl in
  let ops = float_of_int (isum issued runs) in
  let per_op n = float_of_int n /. ops in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let simulate_s = sum (fun (r : Workload.run) -> r.simulate_s) runs in
  let simulate_words = sum (fun (r : Workload.run) -> r.simulate_words) runs in
  let events = float_of_int (isum (fun (r : Workload.run) -> r.events) runs) in
  let check_s = sum (fun (r : Workload.run) -> r.check_s) runs in
  let staleness_s = sum (fun (r : Workload.run) -> r.staleness_s) runs in
  let sim_rate protocol =
    let r = run_of protocol it in
    float_of_int r.result.Driver.completed /. r.simulate_s
  in
  [
    ("driver.simulate_s", simulate_s);
    ("driver.words_per_op", simulate_words /. ops);
    ("dqvl.simulate_ops_per_s", sim_rate "dqvl-paper");
    ("majority.simulate_ops_per_s", sim_rate "majority");
    ("engine.events_per_op", events /. ops);
    ("engine.events_per_s", events /. simulate_s);
    ("engine.words_per_event", simulate_words /. events);
    ("net.remote_msgs_per_op", per_op total.msgs_remote);
    ("net.local_msgs_per_op", per_op total.msgs_local);
    ("net.dropped_per_op", per_op total.msgs_dropped);
    ("rpc.rounds_per_op", per_op total.rpc_rounds);
    ("rpc.retry_share", ratio total.rpc_retries total.rpc_rounds);
    ("rpc.give_ups", float_of_int total.rpc_give_ups);
    ("oqs.read_hit_ratio", ratio dc.read_hits (dc.read_hits + dc.read_misses));
    ("lease.granted_per_op", ratio dc.leases_granted (issued dqvl));
    ("lease.expired_per_op", ratio dc.leases_expired (issued dqvl));
    ("iqs.inval_through_per_write", ratio dc.inval_through dqvl.writes);
    ("iqs.inval_suppressed_per_write", ratio dc.inval_suppressed dqvl.writes);
    ("iqs.inval_delayed_per_write", ratio dc.inval_delayed dqvl.writes);
    ( "recovery.duration_ms",
      if total.recoveries = 0 then 0. else total.recovery_ms /. float_of_int total.recoveries );
    ("recovery.bytes", ratio total.recovery_bytes total.recoveries);
    ("checker.check_s", check_s);
    ("checker.ns_per_op", check_s *. 1e9 /. ops);
    ("checker.words_per_op", sum (fun (r : Workload.run) -> r.check_words) runs /. ops);
    ("checker.share", check_s /. it.measure_s);
    ("staleness.measure_s", staleness_s);
    ("staleness.share", staleness_s /. it.measure_s);
    ("telemetry.events_per_op", per_op total.events);
  ]

let medians (rows : (string * float) list list) =
  List.map
    (fun (name, _) -> (name, Report.median (List.map (fun row -> List.assoc name row) rows)))
    (List.hd rows)

let print_spans spans =
  Printf.printf "%-28s %6s %10s %10s\n" "span" "count" "total_s" "self_s";
  List.iter
    (fun (name, total, self, n) -> Printf.printf "%-28s %6d %10.4f %10.4f\n" name n total self)
    (Spans.self_by_name spans)

let write_spans (args : args) spans =
  let dir = ".perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let file =
    Filename.concat dir
      (Printf.sprintf "spans-%s-seed%Ld.json" args.workload.Workload.name args.seed)
  in
  Out_channel.with_open_text file (fun oc -> output_string oc (Spans.to_json spans));
  Printf.printf "spans written to %s\n" file

let traced (args : args) =
  let w = args.workload in
  let t0 = Wall.now () in
  let spans = Spans.create () in
  let sp = Some spans in
  let setups, first, reference, _ = first_pass args in
  let recorder = Micro.recorder ~limit:replay_limit in
  let dqvl_name = List.hd w.Workload.protocols in
  let record protocol =
    if String.equal protocol dqvl_name then Some (Micro.record recorder) else None
  in
  let traced_pass ?record () =
    let s, it = checked_pass ?spans:sp ?record ~traced:true ~reference args in
    (s, (pass_of it, layer_values it))
  in
  let s, first_traced = traced_pass ~record () in
  (* Untraced and traced passes alternate, so both see the same machine. *)
  let deadline = args.seconds -. micro_reserve_s in
  let rec alternate setups plain traced =
    let want_plain = List.length plain <= List.length traced in
    if not (fits ~t0 ~deadline (if want_plain then plain else List.map fst traced)) then
      (setups, plain, traced)
    else if want_plain then begin
      let s, it = checked_pass ~traced:false ~reference args in
      alternate (s @ setups) (pass_of it :: plain) traced
    end
    else begin
      let s, row = traced_pass () in
      alternate (s @ setups) plain (row :: traced)
    end
  in
  let setups, plain, traced = alternate (s @ setups) [ first ] [ first_traced ] in
  let layers = medians (List.map snd traced) in
  let micro name f = Spans.within sp name (fun () -> f ~seed:args.seed ~budget_s:micro_budget_s) in
  let dispatch = micro "micro.engine_dispatch" Micro.engine_dispatch in
  let send = micro "micro.net_send_deliver" Micro.net_send_deliver in
  let qrpc = micro "micro.qrpc_round" Micro.qrpc_round in
  let read_hit = micro "micro.oqs_read_hit" Micro.oqs_read_hit in
  let iqs_write = micro "micro.iqs_write" Micro.iqs_write in
  let events = Micro.recorded recorder in
  let replay name make =
    Spans.within sp name (fun () -> Micro.sink_replay ~budget_s:micro_budget_s events make)
  in
  let metrics_ns = replay "replay.metrics_sink" (fun () -> Metrics.sink (Metrics.create ())) in
  let aoi_ns = replay "replay.aoi_sink" (fun () -> Aoi.sink (Aoi.create ())) in
  let trace_ns = replay "replay.trace_sink" (fun () -> Trace.sink (Trace.create ())) in
  let plain_ops = best plain in
  let traced_ops = best (List.map fst traced) in
  (* The share of an untraced pass spent in the Metrics and Aoi
     callbacks, on the workload that subscribes them: events per op
     times the replayed cost per event, times ops per second. *)
  let sink_share =
    if w.Workload.product_sinks then
      List.assoc "telemetry.events_per_op" layers *. (metrics_ns +. aoi_ns) *. 1e-9 *. plain_ops
    else 0.
  in
  print_passes "untraced" (List.rev plain);
  print_passes "traced" (List.rev_map fst traced);
  print_spans spans;
  write_spans args spans;
  let passes = plain @ List.map fst traced in
  Printf.printf "%d untraced and %d traced passes in %.1f s; %d events replayed per sink\n"
    (List.length plain) (List.length traced)
    (Wall.now () -. t0)
    (Array.length events);
  finish
    ~attempted:(isum (fun p -> p.attempted) passes)
    ~failed:(isum (fun p -> p.failed) passes)
    (with_metric_table Report.per_layer
       (layers
       @ [
           ("registry.build_s", Report.median (List.map snd setups));
           ("engine.dispatch_ns", dispatch.Micro.ns_per_op);
           ("engine.dispatch_words", dispatch.Micro.words_per_op);
           ("net.send_deliver_ns", send.Micro.ns_per_op);
           ("net.send_deliver_words", send.Micro.words_per_op);
           ("rpc.qrpc_round_ns", qrpc.Micro.ns_per_op);
           ("oqs.read_hit_ns", read_hit.Micro.ns_per_op);
           ("iqs.write_ns", iqs_write.Micro.ns_per_op);
           ("telemetry.metrics_sink_ns_per_event", metrics_ns);
           ("telemetry.aoi_sink_ns_per_event", aoi_ns);
           ("telemetry.trace_sink_ns_per_event", trace_ns);
           ("telemetry.sink_share", sink_share);
           ("trace.overhead", (plain_ops /. traced_ops) -. 1.);
         ]))

let () =
  if Array.length Sys.argv = 2 && String.equal Sys.argv.(1) "--spec" then
    print_string (Definition.json ())
  else begin
    let args = parse Sys.argv in
    if args.trace then traced args else untraced args
  end
