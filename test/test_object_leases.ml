(* Finite object leases (paper footnote 4): expired callbacks need no
   invalidation, bounding write blocking even without volume leases and
   cutting write-side traffic when readers move away. *)

module Engine = Dq_sim.Engine
module Topology = Dq_net.Topology
module Net = Dq_net.Net
module Metrics = Dq_telemetry.Metrics
module Cluster = Dq_core.Cluster
module Config = Dq_core.Config
module Oqs = Dq_core.Oqs_server
module R = Dq_intf.Replication
open Dq_storage

let key = Key.make ~volume:0 ~index:0

let obj_lease = 1_500.

let setup ?(use_volume_leases = true) () =
  let engine = Engine.create ~seed:41L () in
  let topology = Topology.make ~n_servers:5 ~n_clients:2 () in
  let servers = Topology.servers topology in
  let config =
    {
      (Config.dqvl ~servers ~volume_lease_ms:30_000. ~proactive_renew:false
         ~object_lease_ms:obj_lease ())
      with
      Config.use_volume_leases;
    }
  in
  let cluster = Cluster.create engine topology config in
  (engine, cluster, Cluster.api cluster)

let test_object_lease_expires () =
  let engine, cluster, api = setup () in
  let before = ref None and after = ref None in
  api.R.submit_read ~client:5 ~server:0 key (fun _ ->
      (match Cluster.oqs_server cluster 0 with
      | Some oqs -> before := Some (Oqs.is_locally_valid oqs key)
      | None -> ());
      ignore
        (Engine.schedule engine ~delay:(obj_lease *. 1.5) (fun () ->
             match Cluster.oqs_server cluster 0 with
             | Some oqs -> after := Some (Oqs.is_locally_valid oqs key)
             | None -> ())));
  Engine.run ~until:60_000. engine;
  Alcotest.(check (option bool)) "valid under lease" (Some true) !before;
  Alcotest.(check (option bool)) "invalid after expiry" (Some false) !after

let test_read_after_expiry_is_fresh () =
  let engine, _, api = setup () in
  let got = ref None in
  api.R.submit_read ~client:5 ~server:0 key (fun _ ->
      api.R.submit_write ~client:6 ~server:1 key "v2" (fun _ ->
          ignore
            (Engine.schedule engine ~delay:(obj_lease *. 2.) (fun () ->
                 api.R.submit_read ~client:5 ~server:0 key (fun r ->
                     got := Some r.R.read_value)))));
  Engine.run ~until:60_000. engine;
  Alcotest.(check (option string)) "fresh after renewal" (Some "v2") !got

let test_write_suppressed_after_reader_lease_lapses () =
  (* Server 4 read long ago; by the time of the write its object lease
     has lapsed, so the write sends no invalidation to it at all. *)
  let engine, cluster, api = setup () in
  let inval_count () =
    match
      List.assoc_opt "inval" (Metrics.by_label (Net.stats (Cluster.net cluster)))
    with
    | Some n -> n
    | None -> 0
  in
  let invals_for_write = ref None in
  api.R.submit_read ~client:5 ~server:4 key (fun _ ->
      ignore
        (Engine.schedule engine ~delay:(obj_lease *. 2.) (fun () ->
             let before = inval_count () in
             api.R.submit_write ~client:6 ~server:1 key "v" (fun _ ->
                 invals_for_write := Some (inval_count () - before)))));
  Engine.run ~until:60_000. engine;
  Alcotest.(check (option int)) "no invalidations needed" (Some 0) !invals_for_write

let test_write_through_while_lease_valid () =
  (* Same scenario but writing inside the lease: the holder must be
     invalidated. *)
  let engine, cluster, api = setup () in
  let inval_count () =
    match
      List.assoc_opt "inval" (Metrics.by_label (Net.stats (Cluster.net cluster)))
    with
    | Some n -> n
    | None -> 0
  in
  let invals_for_write = ref None in
  api.R.submit_read ~client:5 ~server:4 key (fun _ ->
      let before = inval_count () in
      api.R.submit_write ~client:6 ~server:1 key "v" (fun _ ->
          invals_for_write := Some (inval_count () - before)));
  Engine.run ~until:60_000. engine;
  match !invals_for_write with
  | Some n -> Alcotest.(check bool) "holder invalidated" true (n > 0)
  | None -> Alcotest.fail "write did not complete"

let test_bounded_blocking_without_volume_leases () =
  (* The basic dual-quorum protocol blocks forever on a crashed
     callback holder; with finite object leases the block is bounded by
     the object lease. *)
  let engine, _, api = setup ~use_volume_leases:false () in
  let write_latency = ref None in
  api.R.submit_read ~client:5 ~server:4 key (fun _ ->
      api.R.crash_server 4;
      let start = Engine.now engine in
      api.R.submit_write ~client:6 ~server:1 key "v" (fun _ ->
          write_latency := Some (Engine.now engine -. start)));
  Engine.run ~until:120_000. engine;
  match !write_latency with
  | Some latency ->
    Alcotest.(check bool)
      (Printf.sprintf "bounded by object lease (%.0f ms)" latency)
      true
      (latency < (2.5 *. obj_lease) +. 1_000.)
  | None -> Alcotest.fail "write never completed"

let test_consistency_with_finite_leases () =
  let topology = Topology.make ~n_servers:5 ~n_clients:3 () in
  let engine = Engine.create ~seed:43L () in
  let builder =
    Dq_harness.Registry.dqvl ~volume_lease_ms:3_000. ~object_lease_ms:800. ()
  in
  let instance = builder.Dq_harness.Registry.build engine topology () in
  let spec =
    {
      Dq_workload.Spec.default with
      Dq_workload.Spec.write_ratio = 0.4;
      sharing = Dq_workload.Spec.Shared_uniform { objects = 2 };
      think_time_ms = 100.;
    }
  in
  let config =
    { (Dq_harness.Driver.default_config spec) with Dq_harness.Driver.ops_per_client = 80 }
  in
  let result = Dq_harness.Driver.run engine topology instance.Dq_harness.Registry.api config in
  let report = Dq_harness.Regular_checker.check result.Dq_harness.Driver.history in
  Alcotest.(check int) "regular" 0 (List.length report.Dq_harness.Regular_checker.violations);
  Alcotest.(check int) "no failures" 0 result.Dq_harness.Driver.failed

let test_ablation_reduces_write_traffic () =
  match Dq_harness.Experiment.ablation_object_lease ~ops:60 ~object_leases_ms:[ 500. ] () with
  | [ (_, infinite_mpr, _); (_, finite_mpr, _) ] ->
    Alcotest.(check bool)
      (Printf.sprintf "finite (%.1f) <= infinite (%.1f) messages/request" finite_mpr
         infinite_mpr)
      true
      (finite_mpr <= infinite_mpr +. 0.5)
  | _ -> Alcotest.fail "two configurations expected"

let () =
  Alcotest.run "object_leases"
    [
      ( "unit",
        [
          Alcotest.test_case "expiry" `Quick test_object_lease_expires;
          Alcotest.test_case "fresh after expiry" `Quick test_read_after_expiry_is_fresh;
          Alcotest.test_case "write suppressed after lapse" `Quick
            test_write_suppressed_after_reader_lease_lapses;
          Alcotest.test_case "write through under lease" `Quick
            test_write_through_while_lease_valid;
          Alcotest.test_case "bounded blocking without volume leases" `Quick
            test_bounded_blocking_without_volume_leases;
          Alcotest.test_case "consistency" `Slow test_consistency_with_finite_leases;
          Alcotest.test_case "ablation" `Slow test_ablation_reduces_write_traffic;
        ] );
    ]
