module Engine = Dq_sim.Engine
module Topology = Dq_net.Topology
module Spec = Dq_workload.Spec
module Driver = Dq_harness.Driver
module Registry = Dq_harness.Registry
module Stats = Dq_util.Stats

let run_with ?(ops = 20) ?(spec = Spec.default) ?(builder = Registry.majority)
    ?(timeout_ms = 30_000.) ?(events = []) () =
  let engine = Engine.create ~seed:11L () in
  let topology = Topology.make ~n_servers:5 ~n_clients:3 () in
  let instance = builder.Registry.build engine topology () in
  let config =
    { (Driver.default_config spec) with Driver.ops_per_client = ops; timeout_ms }
  in
  Driver.run_with_events engine topology instance.Registry.api config ~events
    ~on_net_event:(function
    | `Partition groups -> instance.Registry.partition groups
    | `Heal -> instance.Registry.heal ())

let test_counts_add_up () =
  let r = run_with () in
  Alcotest.(check int) "issued" 60 r.Driver.issued;
  Alcotest.(check int) "completed + failed = issued" 60 (r.Driver.completed + r.Driver.failed);
  Alcotest.(check int) "no failures in a healthy run" 0 r.Driver.failed;
  Alcotest.(check int) "history records all" 60 (List.length r.Driver.history)

let test_warmup_excluded_from_stats () =
  let r = run_with ~ops:20 () in
  (* 3 clients x (20 - 10 warmup) = 30 measured operations. *)
  Alcotest.(check int) "measured count" 30 (Stats.count r.Driver.all_latency);
  Alcotest.(check int) "read + write = all"
    (Stats.count r.Driver.all_latency)
    (Stats.count r.Driver.read_latency + Stats.count r.Driver.write_latency)

let test_latencies_positive_and_bounded () =
  let r = run_with () in
  Alcotest.(check bool) "positive" true (Stats.min r.Driver.all_latency > 0.);
  Alcotest.(check bool) "bounded by timeout" true (Stats.max r.Driver.all_latency < 30_000.)

let test_messages_counted () =
  let r = run_with () in
  Alcotest.(check bool) "messages flowed" true (r.Driver.remote_messages > 0);
  Alcotest.(check bool) "mpr sane" true
    (r.Driver.messages_per_request > 1. && r.Driver.messages_per_request < 1000.)

let test_all_ops_fail_when_cluster_down () =
  let events =
    List.init 5 (fun i -> { Driver.at_ms = 0.; action = `Crash i })
  in
  let r = run_with ~ops:3 ~timeout_ms:500. ~events () in
  Alcotest.(check int) "all failed" r.Driver.issued r.Driver.failed;
  Alcotest.(check int) "none completed" 0 r.Driver.completed

let test_think_time_spreads_requests () =
  let spec = { Spec.default with Spec.think_time_ms = 100. } in
  let r = run_with ~ops:5 ~spec () in
  Alcotest.(check int) "still completes" 15 r.Driver.completed

let test_deterministic () =
  let a = run_with () and b = run_with () in
  Alcotest.(check (float 0.)) "same mean latency"
    (Stats.mean a.Driver.all_latency)
    (Stats.mean b.Driver.all_latency);
  Alcotest.(check int) "same message count" a.Driver.remote_messages b.Driver.remote_messages

let test_partition_event_applied () =
  (* Cut off a majority mid-run: some operations must fail, and they
     must succeed again after healing. *)
  let events =
    [
      { Driver.at_ms = 500.; action = `Partition [ [ 0; 1 ]; [ 2; 3; 4 ] ] };
      { Driver.at_ms = 3_000.; action = `Heal };
    ]
  in
  let r = run_with ~ops:20 ~timeout_ms:1_000. ~events () in
  Alcotest.(check bool) "some failures during partition" true (r.Driver.failed > 0);
  Alcotest.(check bool) "recovered afterwards" true (r.Driver.completed > 0)

(* Once a run has returned, the driver holds nothing of it: each op's
   timeout, still queued in the engine 30 virtual seconds out, must not
   keep the op's state, or through it the history, reachable. The run is
   made in a separate function, so no local root of the test holds the
   result. *)
let[@inline never] run_and_watch_one_op ~weak builder =
  let engine = Engine.create ~seed:11L () in
  let topology = Topology.make ~n_servers:5 ~n_clients:3 () in
  let instance = builder.Registry.build engine topology () in
  let config = { (Driver.default_config Spec.default) with Driver.ops_per_client = 20 } in
  let r = Driver.run engine topology instance.Registry.api config in
  (match r.Driver.history with
  | op :: _ -> Weak.set weak 0 (Some op)
  | [] -> Alcotest.fail "empty history");
  (engine, instance)

let test_result_not_retained builder () =
  let weak = Weak.create 1 in
  let engine, instance = run_and_watch_one_op ~weak builder in
  Alcotest.(check bool) "timeouts still queued" true (Engine.pending_events engine > 0);
  Gc.full_major ();
  Alcotest.(check bool) "op record collected" false (Weak.check weak 0);
  ignore (Sys.opaque_identity (engine, instance))

let () =
  Alcotest.run "driver"
    [
      ( "unit",
        [
          Alcotest.test_case "counts add up" `Quick test_counts_add_up;
          Alcotest.test_case "warmup excluded" `Quick test_warmup_excluded_from_stats;
          Alcotest.test_case "latencies sane" `Quick test_latencies_positive_and_bounded;
          Alcotest.test_case "messages counted" `Quick test_messages_counted;
          Alcotest.test_case "cluster down" `Quick test_all_ops_fail_when_cluster_down;
          Alcotest.test_case "think time" `Quick test_think_time_spreads_requests;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "partition event" `Quick test_partition_event_applied;
          Alcotest.test_case "result not retained (majority)" `Quick
            (test_result_not_retained Registry.majority);
          Alcotest.test_case "result not retained (dqvl)" `Quick
            (test_result_not_retained (Registry.dqvl ()));
        ] );
    ]
