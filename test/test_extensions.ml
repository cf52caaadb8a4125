(* Extensions beyond the paper's headline figures: staleness metrics,
   crash/recovery churn, the atomicity checker and the atomic (read-
   impose) protocol variants, and availability-aware request routing. *)

module E = Dq_harness.Experiment
module H = Dq_harness.History
module C = Dq_harness.Regular_checker
module S = Dq_harness.Staleness
module Churn = Dq_harness.Churn
module Driver = Dq_harness.Driver
module Registry = Dq_harness.Registry
module Engine = Dq_sim.Engine
module Topology = Dq_net.Topology
module Spec = Dq_workload.Spec
open Dq_storage

let key = Key.make ~volume:0 ~index:0

let lc c = Some (Lc.make ~count:c ~node:0)

let mk ~id ~kind ~value ~c ~invoked ~responded =
  { H.id; client = 0; key; kind; value; lc = lc c; invoked; responded; gave_up = None }

(* --- staleness metrics -------------------------------------------------- *)

let test_staleness_none_when_fresh () =
  let ops =
    [
      mk ~id:0 ~kind:H.Write ~value:"a" ~c:1 ~invoked:0. ~responded:(Some 10.);
      mk ~id:1 ~kind:H.Read ~value:"a" ~c:1 ~invoked:20. ~responded:(Some 30.);
    ]
  in
  let r = S.measure ops in
  Alcotest.(check int) "checked" 1 r.S.checked;
  Alcotest.(check int) "stale" 0 (List.length r.S.stale);
  Alcotest.(check (float 0.)) "fraction" 0. (S.stale_fraction r)

let test_staleness_measured () =
  let ops =
    [
      mk ~id:0 ~kind:H.Write ~value:"a" ~c:1 ~invoked:0. ~responded:(Some 10.);
      mk ~id:1 ~kind:H.Write ~value:"b" ~c:2 ~invoked:20. ~responded:(Some 30.);
      mk ~id:2 ~kind:H.Write ~value:"c" ~c:3 ~invoked:40. ~responded:(Some 50.);
      (* Read at 100..110 returns "a": 2 versions behind; the freshest
         missed write ("c") completed at 50, so 60 ms behind. *)
      mk ~id:3 ~kind:H.Read ~value:"a" ~c:1 ~invoked:100. ~responded:(Some 110.);
    ]
  in
  let r = S.measure ops in
  (match r.S.stale with
  | [ s ] ->
    Alcotest.(check (float 1e-9)) "behind" 60. s.S.behind_ms;
    Alcotest.(check int) "versions" 2 s.S.versions_behind
  | _ -> Alcotest.fail "one stale read expected");
  Alcotest.(check (float 1e-9)) "max" 60. r.S.max_behind_ms;
  Alcotest.(check int) "max versions" 2 r.S.max_versions_behind

let test_staleness_concurrent_write_not_stale () =
  (* A read overlapping the newer write is not stale. *)
  let ops =
    [
      mk ~id:0 ~kind:H.Write ~value:"a" ~c:1 ~invoked:0. ~responded:(Some 10.);
      mk ~id:1 ~kind:H.Write ~value:"b" ~c:2 ~invoked:50. ~responded:(Some 90.);
      mk ~id:2 ~kind:H.Read ~value:"a" ~c:1 ~invoked:60. ~responded:(Some 70.);
    ]
  in
  Alcotest.(check int) "not stale" 0 (List.length (S.measure ops).S.stale)

(* --- churn --------------------------------------------------------------- *)

let test_churn_periods_for () =
  let mttf, mttr = Churn.periods_for ~p:0.1 ~cycle_ms:1000. in
  Alcotest.(check (float 1e-9)) "mttf" 900. mttf;
  Alcotest.(check (float 1e-9)) "mttr" 100. mttr

let test_churn_downtime_fraction () =
  let engine = Engine.create ~seed:5L () in
  let up = Array.make 4 true in
  let churn =
    Churn.install engine
      ~crash:(fun i -> up.(i) <- false)
      ~recover:(fun i -> up.(i) <- true)
      ~servers:[ 0; 1; 2; 3 ] ~mttf_ms:900. ~mttr_ms:100.
  in
  Engine.run ~until:2_000_000. engine;
  (* Long run: each node should be down about 10% of the time. *)
  List.iter
    (fun node ->
      let f = Churn.downtime_fraction churn ~node in
      Alcotest.(check bool)
        (Printf.sprintf "node %d downtime %.3f near 0.1" node f)
        true
        (f > 0.05 && f < 0.16))
    [ 0; 1; 2; 3 ];
  Churn.stop churn

let test_churn_stop () =
  let engine = Engine.create ~seed:6L () in
  let events = ref 0 in
  let churn =
    Churn.install engine
      ~crash:(fun _ -> incr events)
      ~recover:(fun _ -> incr events)
      ~servers:[ 0 ] ~mttf_ms:100. ~mttr_ms:100.
  in
  Engine.run ~until:1_000. engine;
  Churn.stop churn;
  let before = !events in
  Engine.run ~until:10_000. engine;
  (* At most one already-scheduled transition fires after stop. *)
  Alcotest.(check bool) "stopped" true (!events <= before + 1)

(* --- atomicity checker ---------------------------------------------------- *)

let test_inversion_detected () =
  let ops =
    [
      mk ~id:0 ~kind:H.Write ~value:"old" ~c:1 ~invoked:0. ~responded:(Some 10.);
      mk ~id:1 ~kind:H.Write ~value:"new" ~c:2 ~invoked:20. ~responded:(Some 200.);
      (* Both reads overlap the second write, so each alone is regular;
         but read1 sees "new" and the later read2 sees "old". *)
      mk ~id:2 ~kind:H.Read ~value:"new" ~c:2 ~invoked:30. ~responded:(Some 50.);
      mk ~id:3 ~kind:H.Read ~value:"old" ~c:1 ~invoked:60. ~responded:(Some 80.);
    ]
  in
  Alcotest.(check bool) "regular" true (C.is_regular ops);
  Alcotest.(check int) "one inversion" 1 (List.length (C.new_old_inversions ops));
  Alcotest.(check bool) "not atomic" false (C.is_atomic ops)

let test_no_inversion_when_monotone () =
  let ops =
    [
      mk ~id:0 ~kind:H.Write ~value:"a" ~c:1 ~invoked:0. ~responded:(Some 10.);
      mk ~id:1 ~kind:H.Read ~value:"a" ~c:1 ~invoked:20. ~responded:(Some 30.);
      mk ~id:2 ~kind:H.Write ~value:"b" ~c:2 ~invoked:40. ~responded:(Some 50.);
      mk ~id:3 ~kind:H.Read ~value:"b" ~c:2 ~invoked:60. ~responded:(Some 70.);
    ]
  in
  Alcotest.(check int) "no inversions" 0 (List.length (C.new_old_inversions ops));
  Alcotest.(check bool) "atomic" true (C.is_atomic ops)

let test_overlapping_reads_not_inverted () =
  (* Overlapping reads may disagree without violating atomicity. *)
  let ops =
    [
      mk ~id:0 ~kind:H.Write ~value:"a" ~c:1 ~invoked:0. ~responded:(Some 10.);
      mk ~id:1 ~kind:H.Write ~value:"b" ~c:2 ~invoked:20. ~responded:(Some 100.);
      mk ~id:2 ~kind:H.Read ~value:"b" ~c:2 ~invoked:30. ~responded:(Some 60.);
      mk ~id:3 ~kind:H.Read ~value:"a" ~c:1 ~invoked:50. ~responded:(Some 80.);
    ]
  in
  Alcotest.(check int) "no inversions" 0 (List.length (C.new_old_inversions ops))

(* --- atomic protocol variants ---------------------------------------------- *)

let concurrent_run builder =
  let topology = Topology.make ~n_servers:5 ~n_clients:3 () in
  let engine = Engine.create ~seed:31L () in
  let instance = builder.Registry.build engine topology () in
  let spec =
    {
      Spec.default with
      Spec.write_ratio = 0.4;
      sharing = Spec.Shared_uniform { objects = 1 };
    }
  in
  let config = { (Driver.default_config spec) with Driver.ops_per_client = 80 } in
  Driver.run engine topology instance.Registry.api config

let test_atomic_variants_have_no_inversions () =
  List.iter
    (fun builder ->
      let result = concurrent_run builder in
      Alcotest.(check int)
        (builder.Registry.name ^ " completes")
        0 result.Driver.failed;
      Alcotest.(check bool)
        (builder.Registry.name ^ " regular")
        true
        (C.is_regular result.Driver.history);
      Alcotest.(check int)
        (builder.Registry.name ^ " inversions")
        0
        (List.length (C.new_old_inversions result.Driver.history)))
    [ Registry.atomic_majority; Registry.dqvl_atomic ]

let test_atomicity_costs_a_round_trip () =
  let rows = E.ablation_atomic ~ops:60 () in
  let find name =
    match List.find_opt (fun (r : E.response_row) -> r.E.protocol = name) rows with
    | Some r -> r
    | None -> Alcotest.failf "missing %s" name
  in
  let dq = find "dqvl" and dqa = find "dqvl-atomic" in
  let mj = find "majority" and mja = find "atomic-majority" in
  Alcotest.(check bool) "dqvl atomic reads cost more" true (dqa.E.read_ms > 3. *. dq.E.read_ms);
  Alcotest.(check bool) "majority atomic reads cost ~2x" true
    (mja.E.read_ms > 1.5 *. mj.E.read_ms);
  List.iter (fun (r : E.response_row) -> Alcotest.(check int) (r.E.protocol ^ " regular") 0 r.E.violations) rows

(* --- measured availability and redirection --------------------------------- *)

let test_fig8_measured_ordering () =
  let rows = E.fig8_measured ~ops:80 () in
  let u name =
    match List.assoc_opt name rows with
    | Some v -> v
    | None -> Alcotest.failf "missing %s" name
  in
  Alcotest.(check bool) "rowa-async most available" true (u "rowa-async" <= u "dqvl");
  Alcotest.(check bool) "dqvl beats rowa" true (u "dqvl" < u "rowa");
  Alcotest.(check bool) "majority beats rowa" true (u "majority" < u "rowa");
  Alcotest.(check bool) "all bounded" true (List.for_all (fun (_, v) -> v >= 0. && v <= 1.) rows)

let test_redirection_restores_availability () =
  (* Crash the closest server of every client; with redirection the
     majority protocol still serves everything, without it nothing
     completes (requests go to the dead front end). *)
  let run ~redirect =
    let topology = Topology.make ~n_servers:5 ~n_clients:2 () in
    let engine = Engine.create ~seed:8L () in
    let instance = Registry.majority.Registry.build engine topology () in
    instance.Registry.api.Dq_intf.Replication.crash_server 0;
    instance.Registry.api.Dq_intf.Replication.crash_server 1;
    let config =
      {
        (Driver.default_config Spec.default) with
        Driver.ops_per_client = 10;
        timeout_ms = 2_000.;
        redirect_to_up = redirect;
      }
    in
    Driver.run engine topology instance.Registry.api config
  in
  let with_redirect = run ~redirect:true in
  let without = run ~redirect:false in
  Alcotest.(check int) "with redirection all complete" 0 with_redirect.Driver.failed;
  Alcotest.(check int) "without redirection all fail" without.Driver.issued
    without.Driver.failed

let test_open_loop_driver () =
  (* Open arrivals: all operations settle, latencies recorded, and the
     issue count matches even though completions do not gate issuance. *)
  let topology = Topology.make ~n_servers:5 ~n_clients:2 () in
  let engine = Engine.create ~seed:12L () in
  let instance = Registry.majority.Registry.build engine topology () in
  let spec = { Spec.default with Spec.arrival = Spec.Open { rate_per_s = 50. } } in
  let config = { (Driver.default_config spec) with Driver.ops_per_client = 30 } in
  let r = Driver.run engine topology instance.Registry.api config in
  Alcotest.(check int) "issued" 60 r.Driver.issued;
  Alcotest.(check int) "all settled" 60 (r.Driver.completed + r.Driver.failed);
  Alcotest.(check int) "no failures" 0 r.Driver.failed

let test_service_time_queueing () =
  (* With a service-time model, higher load means higher latency. *)
  let run rate =
    let topology = Topology.make ~n_servers:5 ~n_clients:3 () in
    let engine = Engine.create ~seed:13L () in
    let instance = Registry.majority.Registry.build engine topology () in
    instance.Registry.set_service_time 2.;
    let spec = { Spec.default with Spec.arrival = Spec.Open { rate_per_s = rate } } in
    let config =
      { (Driver.default_config spec) with Driver.ops_per_client = 100; timeout_ms = 20_000. }
    in
    let r = Driver.run engine topology instance.Registry.api config in
    Dq_util.Stats.mean r.Driver.all_latency
  in
  let light = run 5. and heavy = run 120. in
  Alcotest.(check bool)
    (Printf.sprintf "queueing delay grows (%.1f -> %.1f ms)" light heavy)
    true
    (heavy > light +. 20.)

let test_saturation_shape () =
  match Dq_harness.Experiment.saturation ~ops:150 ~rates:[ 20.; 200. ] () with
  | [ (_, low); (_, high) ] ->
    let at series name = List.assoc name series in
    Alcotest.(check bool) "dqvl saturates later than majority" true
      (at high "dqvl" < at high "majority");
    Alcotest.(check bool) "majority degrades under load" true
      (at high "majority" > at low "majority" +. 50.)
  | _ -> Alcotest.fail "two rates expected"

let test_staleness_ablation_shape () =
  let rows = E.ablation_staleness () in
  let stale_of prefix =
    match List.find_opt (fun r -> r.E.s_protocol = prefix) rows with
    | Some r -> r
    | None -> Alcotest.failf "missing %s" prefix
  in
  let dqvl = stale_of "dqvl" in
  let majority = stale_of "majority" in
  Alcotest.(check (float 0.)) "dqvl never stale" 0. dqvl.E.s_stale_fraction;
  Alcotest.(check (float 0.)) "majority never stale" 0. majority.E.s_stale_fraction;
  let async_rows =
    List.filter (fun r -> r.E.s_stale_fraction > 0.) rows
    |> List.filter (fun r -> r.E.s_protocol <> "dqvl" && r.E.s_protocol <> "majority")
  in
  Alcotest.(check bool) "rowa-async shows staleness under loss" true (async_rows <> [])

let () =
  Alcotest.run "extensions"
    [
      ( "staleness",
        [
          Alcotest.test_case "fresh" `Quick test_staleness_none_when_fresh;
          Alcotest.test_case "measured" `Quick test_staleness_measured;
          Alcotest.test_case "concurrent not stale" `Quick
            test_staleness_concurrent_write_not_stale;
        ] );
      ( "churn",
        [
          Alcotest.test_case "periods" `Quick test_churn_periods_for;
          Alcotest.test_case "downtime fraction" `Quick test_churn_downtime_fraction;
          Alcotest.test_case "stop" `Quick test_churn_stop;
        ] );
      ( "atomicity checker",
        [
          Alcotest.test_case "inversion detected" `Quick test_inversion_detected;
          Alcotest.test_case "monotone" `Quick test_no_inversion_when_monotone;
          Alcotest.test_case "overlap ok" `Quick test_overlapping_reads_not_inverted;
        ] );
      ( "atomic protocols",
        [
          Alcotest.test_case "no inversions" `Slow test_atomic_variants_have_no_inversions;
          Alcotest.test_case "cost" `Slow test_atomicity_costs_a_round_trip;
        ] );
      ( "availability",
        [
          Alcotest.test_case "fig8 measured ordering" `Slow test_fig8_measured_ordering;
          Alcotest.test_case "redirection" `Quick test_redirection_restores_availability;
          Alcotest.test_case "staleness ablation" `Slow test_staleness_ablation_shape;
          Alcotest.test_case "open loop" `Quick test_open_loop_driver;
          Alcotest.test_case "queueing" `Slow test_service_time_queueing;
          Alcotest.test_case "saturation shape" `Slow test_saturation_shape;
        ] );
    ]
