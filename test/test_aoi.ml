(* The age-of-information sink: a golden scripted saw-tooth, the shared
   histogram quantile path, equivalence with the offline staleness /
   age oracles on real protocol runs, and off-path determinism (an
   attached AoI sink must not change what the simulation computes). *)

module Engine = Dq_sim.Engine
module Bus = Dq_telemetry.Bus
module Event = Dq_telemetry.Event
module Aoi = Dq_telemetry.Aoi
module Metrics = Dq_telemetry.Metrics
module Topology = Dq_net.Topology
module Spec = Dq_workload.Spec
module Driver = Dq_harness.Driver
module Registry = Dq_harness.Registry
module Staleness = Dq_harness.Staleness
module Histogram = Dq_util.Histogram
module Stats = Dq_util.Stats

let served ~op ~kind ~key ~lc_count ~lc_node ~start_ms =
  Event.Op_served { op; client = 0; kind; key; lc_count; lc_node; start_ms }

(* --- scripted golden ------------------------------------------------------ *)

(* One key, two writes, four reads, every number checkable by hand.

     t=50   read  "j" @(0,0)   initial value: age 0, fresh
     t=100  write "k" @(1,0)   saw-tooth starts
     t=150  read  "k" @(1,0)   age 50, fresh
     t=300  write "k" @(2,0)   gap 200 -> area 20000, peak 200
     t=400  read  "k" @(1,0)   invoked at 350 > 300: stale, behind 100; age 300
     t=500  read  "k" @(2,0)   age 200, fresh
     t=600  (note)             watermark only

   Closing at 600: tail gap 300 -> area 65000 over span 500. *)
let test_scripted_golden () =
  let t = Aoi.create () in
  let sink = Aoi.sink t in
  sink ~time_ms:50. (served ~op:0 ~kind:"read" ~key:"j" ~lc_count:0 ~lc_node:0 ~start_ms:10.);
  sink ~time_ms:100. (served ~op:1 ~kind:"write" ~key:"k" ~lc_count:1 ~lc_node:0 ~start_ms:60.);
  sink ~time_ms:150. (served ~op:2 ~kind:"read" ~key:"k" ~lc_count:1 ~lc_node:0 ~start_ms:120.);
  sink ~time_ms:300. (served ~op:3 ~kind:"write" ~key:"k" ~lc_count:2 ~lc_node:0 ~start_ms:250.);
  sink ~time_ms:400. (served ~op:4 ~kind:"read" ~key:"k" ~lc_count:1 ~lc_node:0 ~start_ms:350.);
  sink ~time_ms:500. (served ~op:5 ~kind:"read" ~key:"k" ~lc_count:2 ~lc_node:0 ~start_ms:450.);
  sink ~time_ms:600. (Event.Note { src = "test"; msg = lazy "watermark" });
  let s = Aoi.summary t in
  Alcotest.(check int) "keys tracked (reads alone track nothing)" 1 s.Aoi.keys_tracked;
  Alcotest.(check int) "reads checked" 4 s.Aoi.reads_checked;
  Alcotest.(check int) "stale reads" 1 s.Aoi.stale_reads;
  Alcotest.(check (float 0.)) "stale fraction" 0.25 s.Aoi.stale_fraction;
  Alcotest.(check (float 0.)) "mean behind" 100. s.Aoi.mean_behind_ms;
  Alcotest.(check (float 0.)) "max behind" 100. s.Aoi.max_behind_ms;
  Alcotest.(check int) "max versions behind" 1 s.Aoi.max_versions_behind;
  Alcotest.(check (float 0.)) "mean read age" 137.5 s.Aoi.mean_read_age_ms;
  Alcotest.(check (float 0.)) "max read age" 300. s.Aoi.max_read_age_ms;
  Alcotest.(check (float 1e-9)) "time-averaged age = 65000/500" 130. s.Aoi.time_avg_age_ms;
  Alcotest.(check (float 0.)) "peak age is the trailing gap" 300. s.Aoi.peak_age_ms;
  (* [summary] is a pure snapshot: closing the integral at an earlier
     instant must reproduce the mid-run saw-tooth exactly. *)
  let mid = Aoi.summary ~now:300. t in
  Alcotest.(check (float 1e-9)) "mid-run time-averaged age = 20000/200" 100.
    mid.Aoi.time_avg_age_ms;
  Alcotest.(check (float 0.)) "mid-run peak" 200. mid.Aoi.peak_age_ms;
  (* The read-age distribution feeds the shared histogram. *)
  Alcotest.(check int) "read-age samples" 4 (Histogram.count (Aoi.read_age_histogram t));
  Alcotest.(check int) "behind samples" 1 (Histogram.count (Aoi.behind_histogram t))

(* A read can return a version fresher than any completed write (its
   write's response still in flight): age 0, never stale. *)
let test_in_flight_write_age_zero () =
  let t = Aoi.create () in
  let sink = Aoi.sink t in
  sink ~time_ms:100. (served ~op:0 ~kind:"write" ~key:"k" ~lc_count:1 ~lc_node:0 ~start_ms:60.);
  sink ~time_ms:150. (served ~op:1 ~kind:"read" ~key:"k" ~lc_count:2 ~lc_node:1 ~start_ms:120.);
  let s = Aoi.summary t in
  Alcotest.(check int) "read checked" 1 s.Aoi.reads_checked;
  Alcotest.(check int) "not stale" 0 s.Aoi.stale_reads;
  Alcotest.(check (float 0.)) "age 0" 0. s.Aoi.mean_read_age_ms

let test_empty_summary () =
  let t = Aoi.create () in
  let s = Aoi.summary t in
  Alcotest.(check int) "no keys" 0 s.Aoi.keys_tracked;
  Alcotest.(check (float 0.)) "stale fraction 0" 0. s.Aoi.stale_fraction;
  Alcotest.(check (float 0.)) "time-averaged age 0" 0. s.Aoi.time_avg_age_ms

(* --- the single quantile code path ---------------------------------------- *)

let test_histogram_quantile () =
  let h = Histogram.of_samples ~buckets:[ 10.; 20.; 30. ] [ 5.; 15.; 15.; 25. ] in
  Alcotest.(check (float 1e-9)) "q=0 is clamped up to the smallest sample" 5.
    (Histogram.quantile h 0.);
  Alcotest.(check (float 1e-9)) "median interpolates in its bucket" 15.
    (Histogram.quantile h 0.5);
  Alcotest.(check (float 1e-9)) "q=1 is clamped down to the largest sample" 25.
    (Histogram.quantile h 1.);
  Alcotest.(check (float 1e-9)) "q=0.8 interpolates below the largest sample" 22.
    (Histogram.quantile h 0.8);
  Histogram.add h 100.;
  Alcotest.(check (float 1e-9)) "overflow bucket reports the last finite bound" 30.
    (Histogram.quantile h 1.);
  let empty = Histogram.create ~buckets:[ 1. ] in
  Alcotest.(check bool) "empty histogram is nan" true
    (Float.is_nan (Histogram.quantile empty 0.5));
  Alcotest.check_raises "q outside [0,1] rejected"
    (Invalid_argument "Histogram.quantile: q must be in [0, 1]") (fun () ->
      ignore (Histogram.quantile h 1.5))

(* --- equivalence with the offline oracles --------------------------------- *)

(* Run a real protocol with the sink attached, then replay the recorded
   history through [Staleness.measure] / [Staleness.measure_age]. The
   two are independent implementations of one definition: counts and
   maxima must agree exactly; means only up to float summation order. *)
let run_with_aoi ~protocol ~seed =
  let engine = Engine.create ~seed () in
  let aoi = Aoi.create () in
  Bus.subscribe (Engine.telemetry engine) (Aoi.sink aoi);
  let topology = Topology.make ~n_servers:5 ~n_clients:3 () in
  let builder =
    match Registry.find protocol with
    | Some b -> b
    | None -> Alcotest.failf "unknown protocol %s" protocol
  in
  let instance = builder.Registry.build engine topology () in
  let spec =
    {
      Spec.default with
      Spec.write_ratio = 0.3;
      sharing = Spec.Shared_uniform { objects = 4 };
    }
  in
  let config = { (Driver.default_config spec) with Driver.ops_per_client = 40 } in
  let result = Driver.run engine topology instance.Registry.api config in
  ( Aoi.summary aoi,
    Staleness.measure result.Driver.history,
    Staleness.measure_age result.Driver.history )

let check_matches_oracle ~label (s : Aoi.summary) (oracle : Staleness.report)
    (age : Staleness.age_report) =
  let check_int what = Alcotest.(check int) (label ^ ": " ^ what) in
  let close what = Alcotest.(check (float 1e-6)) (label ^ ": " ^ what) in
  check_int "reads checked" oracle.Staleness.checked s.Aoi.reads_checked;
  check_int "stale reads" (List.length oracle.Staleness.stale) s.Aoi.stale_reads;
  check_int "max versions behind" oracle.Staleness.max_versions_behind
    s.Aoi.max_versions_behind;
  close "max behind" oracle.Staleness.max_behind_ms s.Aoi.max_behind_ms;
  close "mean behind" oracle.Staleness.mean_behind_ms s.Aoi.mean_behind_ms;
  check_int "reads examined for age" age.Staleness.reads s.Aoi.reads_checked;
  close "max read age" age.Staleness.max_age_ms s.Aoi.max_read_age_ms;
  close "mean read age" age.Staleness.mean_age_ms s.Aoi.mean_read_age_ms

let test_matches_oracle () =
  (* rowa-async serves local reads with no freshness bound, so shared
     objects make it actually stale — without that the equivalence
     would hold vacuously at zero. *)
  let stale_seen = ref 0 in
  List.iter
    (fun (protocol, seeds) ->
      List.iter
        (fun seed ->
          let s, oracle, age = run_with_aoi ~protocol ~seed in
          Alcotest.(check bool)
            (protocol ^ ": reads completed") true (s.Aoi.reads_checked > 0);
          check_matches_oracle
            ~label:(Printf.sprintf "%s/%Ld" protocol seed)
            s oracle age;
          stale_seen := !stale_seen + s.Aoi.stale_reads)
        seeds)
    [
      ("rowa-async", [ 1L; 2L; 3L ]);
      ("majority", [ 7L ]);
      ("dqvl-paper", [ 7L ]);
      ("primary-backup", [ 7L ]);
    ];
  Alcotest.(check bool) "equivalence exercised nonzero staleness" true (!stale_seen > 0)

(* --- off-path determinism ------------------------------------------------- *)

let run_dqvl ~subscribe () =
  let engine = Engine.create ~seed:21L () in
  if subscribe then begin
    Bus.subscribe (Engine.telemetry engine) (Aoi.sink (Aoi.create ()));
    Bus.subscribe (Engine.telemetry engine) (Metrics.sink (Metrics.create ()))
  end;
  let topology = Topology.make ~n_servers:5 ~n_clients:3 () in
  let builder = Registry.dqvl () in
  let instance = builder.Registry.build engine topology () in
  let spec =
    {
      Spec.default with
      Spec.write_ratio = 0.3;
      sharing = Spec.Shared_uniform { objects = 4 };
    }
  in
  let config = { (Driver.default_config spec) with Driver.ops_per_client = 25 } in
  Driver.run engine topology instance.Registry.api config

let test_sink_off_bit_identical () =
  let bare = run_dqvl ~subscribe:false () in
  let observed = run_dqvl ~subscribe:true () in
  Alcotest.(check int) "completed" bare.Driver.completed observed.Driver.completed;
  Alcotest.(check int) "failed" bare.Driver.failed observed.Driver.failed;
  Alcotest.(check int) "remote messages" bare.Driver.remote_messages
    observed.Driver.remote_messages;
  Alcotest.(check int) "remote bytes" bare.Driver.remote_bytes observed.Driver.remote_bytes;
  Alcotest.(check (float 0.)) "elapsed bit-identical" bare.Driver.elapsed_ms
    observed.Driver.elapsed_ms;
  Alcotest.(check (list (float 0.)))
    "latency samples bit-identical"
    (Stats.to_list bare.Driver.all_latency)
    (Stats.to_list observed.Driver.all_latency);
  Alcotest.(check bool) "histories identical" true
    (bare.Driver.history = observed.Driver.history)

let () =
  Alcotest.run "aoi"
    [
      ( "scripted",
        [
          Alcotest.test_case "golden saw-tooth" `Quick test_scripted_golden;
          Alcotest.test_case "in-flight write reads age 0" `Quick
            test_in_flight_write_age_zero;
          Alcotest.test_case "empty summary" `Quick test_empty_summary;
        ] );
      ( "histogram",
        [ Alcotest.test_case "shared quantile path" `Quick test_histogram_quantile ] );
      ( "oracle",
        [ Alcotest.test_case "online sink matches offline oracles" `Quick test_matches_oracle ]
      );
      ( "determinism",
        [
          Alcotest.test_case "aoi sink does not perturb the run" `Quick
            test_sink_off_bit_identical;
        ] );
    ]
