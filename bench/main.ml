(* The benchmark harness: regenerates every table/figure of the paper's
   evaluation (Section 4) and then runs Bechamel microbenchmarks - one
   Test.make per figure (measuring the computation that regenerates it)
   plus microbenchmarks of the hot paths.

   Usage: main.exe [-j N] [--smoke] [--out BENCH_<n>.json]

   [-j N] sizes the experiment worker pool (default: DQ_JOBS, else the
   machine's recommended domain count). With N > 1 every figure is
   regenerated a second time on the pool and the serial/parallel
   wall-clocks land in a machine-readable BENCH_<n>.json so the perf
   trajectory is tracked across PRs. [--smoke] runs a tiny-op sanity pass
   (serial vs parallel bit-equality) and exits. *)

module E = Dq_harness.Experiment
module Render = Dq_harness.Render
module Table = Dq_util.Table
open Bechamel
open Toolkit

let section title =
  Printf.printf "\n== %s ==\n\n" title

let f2 x = Printf.sprintf "%.2f" x

(* --- figure regeneration ------------------------------------------------ *)

let print_fig6a () =
  section "Figure 6(a): response time at 5% writes (ms)";
  Table.print (Render.response_rows ~title:"protocol" (E.fig6a ()))

let print_fig6b () =
  section "Figure 6(b): mean response time vs write ratio (ms)";
  Table.print (Render.sweep ~title:"" ~x_label:"write ratio" ~x_of:f2 (E.fig6b ()))

let print_fig7a () =
  section "Figure 7(a): response time at 5% writes, 90% locality (ms)";
  Table.print (Render.response_rows ~title:"protocol" (E.fig7a ()))

let print_fig7b () =
  section "Figure 7(b): mean response time vs access locality (ms)";
  Table.print (Render.sweep ~title:"" ~x_label:"locality" ~x_of:f2 (E.fig7b ()))

let print_fig8a () =
  section "Figure 8(a): unavailability vs write ratio (n=15, p=0.01)";
  Table.print
    (Render.series ~title:"" ~x_label:"write ratio" ~x_of:f2 ~fmt:Render.scientific
       (E.fig8a ()))

let print_fig8b () =
  section "Figure 8(b): unavailability vs number of replicas (w=0.25, p=0.01)";
  Table.print
    (Render.series ~title:"" ~x_label:"replicas" ~x_of:string_of_int ~fmt:Render.scientific
       (E.fig8b ()))

let print_fig8_measured () =
  section
    "Figure 8 cross-check: measured unavailability under churn (p=0.1, w=0.25, redirection)";
  let t = Table.create ~header:[ "protocol"; "measured unavail"; "model unavail (p=0.1)" ] in
  let model =
    match E.fig8a ~p:0.1 ~n:9 ~write_ratios:[ 0.25 ] () with
    | [ (_, series) ] -> series
    | _ -> []
  in
  List.iter
    (fun (name, measured) ->
      Table.add_row t
        [
          name;
          Render.scientific measured;
          (match List.assoc_opt name model with
          | Some v -> Render.scientific v
          | None -> "-");
        ])
    (E.fig8_measured ());
  Table.print t

let print_fig9a () =
  section "Figure 9(a): messages per request vs write ratio (model)";
  Table.print (Render.series ~title:"" ~x_label:"write ratio" ~x_of:f2 (E.fig9a ()));
  section "Figure 9(a) cross-check: measured DQVL messages per request";
  Table.print
    (Render.series ~title:"" ~x_label:"write ratio" ~x_of:f2
       (List.map (fun (w, v) -> (w, [ ("dqvl measured", v) ])) (E.fig9a_measured ())))

let print_fig9b () =
  section "Figure 9(b): messages per request vs OQS size (IQS fixed at 5, w=0.25)";
  Table.print
    (Render.series ~title:"" ~x_label:"OQS size" ~x_of:string_of_int (E.fig9b ()))

let print_bandwidth () =
  section "Bandwidth: measured messages and bytes per request (w=0.25)";
  let t = Table.create ~header:[ "protocol"; "msgs/request"; "bytes/request" ] in
  List.iter
    (fun (name, mpr, bpr) ->
      Table.add_row t [ name; Printf.sprintf "%.1f" mpr; Printf.sprintf "%.0f" bpr ])
    (E.bandwidth ());
  Table.print t

let print_saturation () =
  section
    "Load study (beyond the paper): open-loop arrivals, 1 ms/message service time (mean ms)";
  Table.print
    (Render.series ~title:"" ~x_label:"req/s per client"
       ~x_of:(Printf.sprintf "%.0f")
       ~fmt:(Printf.sprintf "%.1f")
       (E.saturation ()))

let print_ablations () =
  section "Ablation: DQVL vs basic dual quorum (value of volume leases)";
  Table.print (Render.response_rows ~title:"protocol" (E.ablation_leases ()));
  section "Ablation: volume lease length (on-demand renewal)";
  Table.print
    (Render.response_rows ~title:"config"
       (List.map
          (fun (lease, r) -> { r with E.protocol = Printf.sprintf "dqvl L=%.0fms" lease })
          (E.ablation_lease_len ())));
  section "Ablation: workload burstiness at 50% writes";
  Table.print
    (Render.response_rows ~title:"config"
       (List.map
          (fun (mean, r) -> { r with E.protocol = Printf.sprintf "dqvl burst=%.0f" mean })
          (E.ablation_bursts ())));
  section "Ablation: OQS read quorum size (paper future work)";
  Table.print
    (Render.response_rows ~title:"config" (List.map snd (E.ablation_orq ())));
  section "Ablation: grid-quorum IQS availability (paper future work)";
  Table.print
    (Render.series ~title:"" ~x_label:"replicas" ~x_of:string_of_int ~fmt:Render.scientific
       (E.ablation_grid ()));
  section "Ablation: finite object leases (paper footnote 4; scattered readers, think time)";
  let t = Table.create ~header:[ "config"; "msgs/request"; "mean write ms" ] in
  List.iter
    (fun (name, mpr, write_ms) ->
      Table.add_row t [ name; Printf.sprintf "%.1f" mpr; Printf.sprintf "%.1f" write_ms ])
    (E.ablation_object_lease ());
  Table.print t;
  section "Ablation: batched volume-lease renewals (6 volumes, 20 s, proactive)";
  let t = Table.create ~header:[ "policy"; "renewal requests" ] in
  List.iter
    (fun (name, n) -> Table.add_row t [ name; string_of_int n ])
    (E.ablation_batch_renewals ());
  Table.print t;
  section "Ablation: the cost of atomic semantics (read-imposition, paper future work)";
  Table.print (Render.response_rows ~title:"protocol" (E.ablation_atomic ()));
  section "Ablation: read staleness under 30% message loss (shared object, 50% writes)";
  let t =
    Table.create ~header:[ "protocol"; "stale reads"; "mean behind (ms)"; "max behind (ms)" ]
  in
  List.iter
    (fun (r : E.staleness_row) ->
      Table.add_row t
        [
          r.E.s_protocol;
          Printf.sprintf "%.1f%%" (100. *. r.E.s_stale_fraction);
          Printf.sprintf "%.0f" r.E.s_mean_behind_ms;
          Printf.sprintf "%.0f" r.E.s_max_behind_ms;
        ])
    (E.ablation_staleness ());
  Table.print t

(* --- bechamel microbenchmarks -------------------------------------------- *)

let engine_churn () =
  let engine = Dq_sim.Engine.create () in
  for i = 1 to 1_000 do
    ignore (Dq_sim.Engine.schedule engine ~delay:(float_of_int (i mod 97)) (fun () -> ()))
  done;
  Dq_sim.Engine.run engine

(* DQVL through [Driver.run] on the paper topology, seed 7: the cluster
   is built here, and the returned thunk issues the workload. *)
let dqvl_setup ~ops =
  let engine = Dq_sim.Engine.create ~seed:7L () in
  let topology = E.paper_topology () in
  let builder = Dq_harness.Registry.dqvl ~volume_lease_ms:1_000. ~proactive_renew:false () in
  let instance = builder.Dq_harness.Registry.build engine topology () in
  let spec = Dq_workload.Spec.default in
  let config =
    { (Dq_harness.Driver.default_config spec) with Dq_harness.Driver.ops_per_client = ops }
  in
  (engine, fun () -> Dq_harness.Driver.run engine topology instance.Dq_harness.Registry.api config)

let dqvl_sim ~ops () = ignore ((snd (dqvl_setup ~ops)) ())

let tests =
  Test.make_grouped ~name:"dual-quorum" ~fmt:"%s %s"
    [
      (* One Test.make per figure: the cost of regenerating it. *)
      Test.make ~name:"fig6a" (Staged.stage (fun () -> ignore (E.fig6a ~ops:30 ())));
      Test.make ~name:"fig6b"
        (Staged.stage (fun () -> ignore (E.fig6b ~ops:15 ~write_ratios:[ 0.05; 0.5 ] ())));
      Test.make ~name:"fig7a" (Staged.stage (fun () -> ignore (E.fig7a ~ops:30 ())));
      Test.make ~name:"fig7b"
        (Staged.stage (fun () -> ignore (E.fig7b ~ops:15 ~localities:[ 0.5; 1.0 ] ())));
      Test.make ~name:"fig8a" (Staged.stage (fun () -> ignore (E.fig8a ())));
      Test.make ~name:"fig8b" (Staged.stage (fun () -> ignore (E.fig8b ())));
      Test.make ~name:"fig9a" (Staged.stage (fun () -> ignore (E.fig9a ())));
      Test.make ~name:"fig9b" (Staged.stage (fun () -> ignore (E.fig9b ())));
      (* Hot paths. *)
      Test.make ~name:"engine 1k events" (Staged.stage engine_churn);
      Test.make ~name:"dqvl 60-op simulation" (Staged.stage (dqvl_sim ~ops:20));
      Test.make ~name:"availability enum grid 4x4"
        (Staged.stage (fun () ->
             let qs = Dq_quorum.Quorum_system.grid ~rows:4 ~cols:4 (List.init 16 Fun.id) in
             ignore
               (Dq_quorum.Availability.unavailability qs ~mode:Dq_quorum.Availability.Write
                  ~p:0.01)));
    ]

let run_benchmarks () =
  section "Bechamel microbenchmarks (ns per run, OLS fit)";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 0.25) ~kde:(Some 10) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table = Table.create ~header:[ "benchmark"; "ns/run"; "r^2" ] in
  let rows =
    Hashtbl.fold (fun name ols_result acc -> (name, ols_result) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let measured =
    List.map
      (fun (name, ols_result) ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some (x :: _) -> Some x
          | Some [] | None -> None
        in
        let r2 = Analyze.OLS.r_square ols_result in
        (name, ns, r2))
      rows
  in
  List.iter
    (fun (name, ns, r2) ->
      let fmt_opt f = function Some x -> Printf.sprintf f x | None -> "-" in
      Table.add_row table [ name; fmt_opt "%.0f" ns; fmt_opt "%.3f" r2 ])
    measured;
  Table.print table;
  measured

(* --- figure regeneration wall-clock, serial vs parallel ----------------- *)

(* Each figure: its printing function (used for the serial pass, so the
   tables appear exactly once) and a silent compute thunk doing the same
   work (used for the timed parallel pass). *)
let figures =
  [
    ("fig6a", print_fig6a, fun () -> ignore (E.fig6a ()));
    ("fig6b", print_fig6b, fun () -> ignore (E.fig6b ()));
    ("fig7a", print_fig7a, fun () -> ignore (E.fig7a ()));
    ("fig7b", print_fig7b, fun () -> ignore (E.fig7b ()));
    ("fig8a", print_fig8a, fun () -> ignore (E.fig8a ()));
    ("fig8b", print_fig8b, fun () -> ignore (E.fig8b ()));
    ("fig8_measured", print_fig8_measured, fun () -> ignore (E.fig8_measured ()));
    ( "fig9a",
      print_fig9a,
      fun () ->
        ignore (E.fig9a ());
        ignore (E.fig9a_measured ()) );
    ("fig9b", print_fig9b, fun () -> ignore (E.fig9b ()));
    ("bandwidth", print_bandwidth, fun () -> ignore (E.bandwidth ()));
    ("saturation", print_saturation, fun () -> ignore (E.saturation ()));
    ( "ablations",
      print_ablations,
      fun () ->
        ignore (E.ablation_leases ());
        ignore (E.ablation_lease_len ());
        ignore (E.ablation_bursts ());
        ignore (E.ablation_orq ());
        ignore (E.ablation_grid ());
        ignore (E.ablation_object_lease ());
        ignore (E.ablation_batch_renewals ());
        ignore (E.ablation_atomic ());
        ignore (E.ablation_staleness ()) );
  ]

let time_it f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* --- advisory guard ------------------------------------------------------ *)

(* Parallel wall-clocks taken on a single-core host measure scheduling
   overhead, not speedup. Mark them so downstream tooling never treats
   them as a perf regression/claim. *)
let cores = Domain.recommended_domain_count ()

let advisory ~jobs = jobs > 1 && cores <= 1

let warn_advisory ~jobs =
  if advisory ~jobs then
    Printf.eprintf
      "warning: -j %d requested but only %d core(s) available; parallel \
       timings are advisory (recorded with \"advisory\": true)\n%!"
      jobs cores

(* --- events per second: DQVL on the paper topology ---------------------- *)

(* Serial throughput of the real protocol, timed from workload issue
   through the regular-semantics checker's verdict; any violation
   fails the run. *)
type eps = { workload_events : int; serial_eps : float }

let run_events_per_sec ~ops =
  section "Events per second: DQVL on the paper topology";
  let engine, run = dqvl_setup ~ops in
  let violations = ref 0 in
  let dt =
    time_it (fun () ->
        let result = run () in
        let report = Dq_harness.Regular_checker.check result.Dq_harness.Driver.history in
        violations := List.length report.Dq_harness.Regular_checker.violations)
  in
  if !violations <> 0 then begin
    Printf.eprintf "events_per_sec: %d regular-register violations\n%!" !violations;
    exit 1
  end;
  let events = Dq_sim.Engine.events_executed engine in
  let serial_eps = float_of_int events /. dt in
  let t = Table.create ~header:[ "mode"; "events"; "events/s" ] in
  Table.add_row t [ "serial"; string_of_int events; Printf.sprintf "%.0f" serial_eps ];
  Table.print t;
  { workload_events = events; serial_eps }

(* --- BENCH_<n>.json ------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float x = if Float.is_finite x then Printf.sprintf "%.6g" x else "null"

let json_opt = function Some x -> json_float x | None -> "null"

(* Parallel timings (per-figure, total) carry "advisory": true when
   taken on a single-core host — they measure pool overhead there, not
   speedup. events_per_sec is serial only; its "parallel" stays null. *)
let write_bench_json ~out ~jobs ~serial ~parallel ~micro ~events =
  let oc = open_out out in
  let adv = advisory ~jobs in
  (* ", \"advisory\": true" appended to entries holding a parallel
     timing taken on a single-core host; empty otherwise. *)
  let adv_field has_parallel = if adv && has_parallel then ", \"advisory\": true" else "" in
  let total xs = List.fold_left (fun acc (_, s) -> acc +. s) 0. xs in
  let parallel_of name = List.assoc_opt name parallel in
  let fig_entries =
    List.map
      (fun (name, serial_s) ->
        let par = parallel_of name in
        let speedup = Option.map (fun p -> serial_s /. p) par in
        Printf.sprintf
          "    {\"name\": \"%s\", \"serial_s\": %s, \"parallel_s\": %s, \"speedup\": %s%s}"
          (json_escape name) (json_float serial_s) (json_opt par) (json_opt speedup)
          (adv_field (par <> None)))
      serial
  in
  let micro_entries =
    List.map
      (fun (name, ns, r2) ->
        Printf.sprintf "    {\"name\": \"%s\", \"ns_per_run\": %s, \"r_square\": %s}"
          (json_escape name) (json_opt ns) (json_opt r2))
      micro
  in
  let total_serial = total serial in
  let total_parallel = if parallel = [] then None else Some (total parallel) in
  let events_json =
    match events with
    | None -> "null"
    | Some e ->
      Printf.sprintf "{\"workload_events\": %d, \"serial\": %s, \"parallel\": null}"
        e.workload_events (json_float e.serial_eps)
  in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": 2,\n\
    \  \"generated_by\": \"bench/main.exe\",\n\
    \  \"jobs\": %d,\n\
    \  \"cores\": %d,\n\
    \  \"advisory\": %b,\n\
    \  \"events_per_sec\": %s,\n\
    \  \"total\": {\"serial_s\": %s, \"parallel_s\": %s, \"speedup\": %s%s},\n\
    \  \"figures\": [\n%s\n  ],\n\
    \  \"microbench_ns_per_run\": [\n%s\n  ]\n\
     }\n"
    jobs cores adv events_json
    (json_float total_serial) (json_opt total_parallel)
    (json_opt (Option.map (fun p -> total_serial /. p) total_parallel))
    (adv_field (total_parallel <> None))
    (String.concat ",\n" fig_entries)
    (String.concat ",\n" micro_entries);
  close_out oc;
  Printf.printf "\nwrote %s\n" out

(* --- smoke mode (CI): tiny ops, parallel path, bit-equality check -------- *)

let run_smoke ~jobs ~out =
  section (Printf.sprintf "Smoke: tiny figures, serial vs -j %d (must be bit-identical)" jobs);
  E.set_jobs 1;
  let fig6a_serial = E.fig6a ~ops:20 () in
  let lease_serial = E.ablation_lease_len ~ops:15 () in
  E.set_jobs jobs;
  let fig6a_par = E.fig6a ~ops:20 () in
  let lease_par = E.ablation_lease_len ~ops:15 () in
  Table.print (Render.response_rows ~title:"protocol" fig6a_par);
  E.set_jobs 1;
  (* [compare] rather than [=]: a NaN mean (all ops inside the warmup
     window) is still equal to itself under the total order. *)
  if compare fig6a_serial fig6a_par = 0 && compare lease_serial lease_par = 0 then
    print_endline "smoke OK: parallel output bit-identical to serial"
  else begin
    prerr_endline "smoke FAILED: parallel output differs from serial";
    exit 1
  end;
  (* A small throughput sample so CI validates the schema-2 JSON shape
     (figures/microbench stay empty in smoke mode). *)
  let eps = run_events_per_sec ~ops:200 in
  write_bench_json ~out ~jobs ~serial:[] ~parallel:[] ~micro:[] ~events:(Some eps)

(* --- entry point ---------------------------------------------------------- *)

let usage () =
  prerr_endline "usage: main.exe [-j N] [--smoke] [--out FILE.json]";
  exit 2

let parse_args () =
  let jobs = ref (Dq_par.Pool.default_jobs ()) in
  let smoke = ref false in
  let out = ref "BENCH_2.json" in
  let rec go = function
    | [] -> ()
    | "-j" :: n :: rest -> (
      match int_of_string_opt n with
      | Some j when j >= 1 ->
        jobs := j;
        go rest
      | _ -> usage ())
    | "--smoke" :: rest ->
      smoke := true;
      go rest
    | "--out" :: file :: rest ->
      out := file;
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  (!jobs, !smoke, !out)

let () =
  let jobs, smoke, out = parse_args () in
  warn_advisory ~jobs;
  if smoke then run_smoke ~jobs ~out
  else begin
    (* Serial pass: print every table/figure (as before) and time it. *)
    E.set_jobs 1;
    let serial = List.map (fun (name, print, _) -> (name, time_it print)) figures in
    (* Parallel pass: regenerate silently on the pool and time it. *)
    let parallel =
      if jobs <= 1 then []
      else begin
        section (Printf.sprintf "Parallel regeneration wall-clock (-j %d)" jobs);
        E.set_jobs jobs;
        let t = Table.create ~header:[ "figure"; "serial s"; "parallel s"; "speedup" ] in
        let timed =
          List.map
            (fun (name, _, compute) ->
              let dt = time_it compute in
              let serial_s = List.assoc name serial in
              Table.add_row t
                [
                  name;
                  Printf.sprintf "%.2f" serial_s;
                  Printf.sprintf "%.2f" dt;
                  Printf.sprintf "%.2fx" (serial_s /. dt);
                ];
              (name, dt))
            figures
        in
        Table.print t;
        timed
      end
    in
    E.set_jobs 1;
    let events = run_events_per_sec ~ops:10_000 in
    let micro = run_benchmarks () in
    write_bench_json ~out ~jobs ~serial ~parallel ~micro ~events:(Some events)
  end
