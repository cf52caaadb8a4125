(* The bench library: the scenario registry, the results renderer
   (contract fields, byte stability, sensitivity to a slowdown) and the
   AoI sink's JSON block that the renderer embeds. The committed smoke
   baselines are compared byte for byte by bench/baselines/dune. *)

module Scenario = Dq_bench.Scenario
module Results = Dq_bench.Results
module Aoi = Dq_telemetry.Aoi
module Event = Dq_telemetry.Event

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
  n = 0 || go 0

(* The AoI sink's JSON block is embedded verbatim in every results
   file, so its exact text is part of the baselines' format. *)
let expected_aoi_json =
  {|{
    "keys": 1,
    "reads_checked": 1,
    "stale_reads": 0,
    "stale_fraction": 0,
    "mean_behind_ms": 0,
    "max_behind_ms": 0,
    "max_versions_behind": 0,
    "mean_read_age_ms": 50,
    "max_read_age_ms": 50,
    "time_avg_age_ms": 25,
    "peak_age_ms": 50,
    "read_age_ms": {"count": 1, "p50": 75, "p90": 95, "p99": 99.5, "buckets": {"< 1": 0, "1 - 2": 0, "2 - 5": 0, "5 - 10": 0, "10 - 20": 0, "20 - 50": 0, "50 - 100": 1, "100 - 200": 0, "200 - 500": 0, "500 - 1000": 0, "1000 - 2000": 0, "2000 - 5000": 0, ">= 5000": 0}},
    "behind_ms": {"count": 0, "p50": null, "p90": null, "p99": null, "buckets": {"< 1": 0, "1 - 2": 0, "2 - 5": 0, "5 - 10": 0, "10 - 20": 0, "20 - 50": 0, "50 - 100": 0, "100 - 200": 0, "200 - 500": 0, "500 - 1000": 0, "1000 - 2000": 0, "2000 - 5000": 0, ">= 5000": 0}},
    "versions_behind": {"count": 0, "p50": null, "p90": null, "p99": null, "buckets": {"< 1": 0, "1 - 2": 0, "2 - 3": 0, "3 - 5": 0, "5 - 10": 0, "10 - 20": 0, ">= 20": 0}}
  }|}

let test_aoi_json () =
  let t = Aoi.create () in
  let sink = Aoi.sink t in
  sink ~time_ms:100.
    (Event.Op_served
       { op = 0; client = 0; kind = "write"; key = "k"; lc_count = 1; lc_node = 0; start_ms = 50. });
  sink ~time_ms:150.
    (Event.Op_served
       { op = 1; client = 0; kind = "read"; key = "k"; lc_count = 1; lc_node = 0; start_ms = 120. });
  Alcotest.(check string) "aoi block" expected_aoi_json (Aoi.to_json t)

(* --- scenario registry ---------------------------------------------------- *)

let test_registry () =
  Alcotest.(check int) "five scenarios" 5 (List.length Scenario.all);
  List.iter
    (fun (s : Scenario.t) ->
      Alcotest.(check bool) (s.Scenario.name ^ " findable") true
        (match Scenario.find s.Scenario.name with Some _ -> true | None -> false);
      Alcotest.(check bool) (s.Scenario.name ^ " smoke is smaller") true
        (s.Scenario.smoke_ops < s.Scenario.ops_per_client);
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (s.Scenario.name ^ " protocol " ^ p ^ " registered")
            true
            (match Dq_harness.Registry.find p with Some _ -> true | None -> false))
        s.Scenario.protocols)
    Scenario.all;
  Alcotest.(check bool) "unknown name" true
    (match Scenario.find "nope" with None -> true | Some _ -> false)

(* --- end to end: run -> render -------------------------------------------- *)

(* One real smoke cell through the whole pipeline. The in-run
   cross-check already holds the AoI sink to the offline oracle; here
   the rendered document must carry the contract fields, and a doubled
   WAN delay must change it — so an exact comparison against a
   committed baseline cannot pass a slowdown. *)
let test_pipeline_end_to_end () =
  let scenario = Scenario.baseline in
  let render wan_scale =
    let outcome =
      Scenario.run_protocol ~wan_scale ~smoke:true ~seed:42L scenario ~protocol:"dqvl-paper"
    in
    Results.render ~smoke:true ~seed:42L scenario [ outcome ]
  in
  let rendered = render 1. in
  let has sub = Alcotest.(check bool) sub true (contains ~sub rendered) in
  has {|"schema": 4,|};
  has {|"name": "baseline",|};
  has {|"dqvl-paper": {|};
  Alcotest.(check bool) "no wall-clock fields" false (contains ~sub:{|"wall"|} rendered);
  Alcotest.(check bool) "doubled WAN delay changes the document" false
    (String.equal rendered (render 2.))

(* Same seed, same cell: the rendered document is byte-stable — the
   property that makes committed baselines meaningful. *)
let test_results_deterministic () =
  let render () =
    let outcome =
      Scenario.run_protocol ~smoke:true ~seed:7L Scenario.high_throughput
        ~protocol:"majority"
    in
    Results.render ~smoke:true ~seed:7L Scenario.high_throughput [ outcome ]
  in
  Alcotest.(check string) "byte-identical rerun" (render ()) (render ())

(* A builder the name registry does not know runs by value, under the
   run id asked for, and leaves the registry as it found it: the path
   [dqr quorum-opt --apply] takes with its optimized [dqvl-opt]. *)
let test_builder_by_value () =
  let builder =
    Dq_harness.Registry.dqvl_custom ~name:"dqvl-opt" (fun servers ->
        Dq_core.Config.dqvl ~servers ())
  in
  let outcome =
    Scenario.run_protocol ~smoke:true ~seed:42L ~builder Scenario.baseline
      ~protocol:"dqvl-opt"
  in
  Alcotest.(check string) "run id" "dqvl-opt" outcome.Scenario.protocol;
  Alcotest.(check bool) "ops completed" true
    (outcome.Scenario.result.Dq_harness.Driver.completed > 0);
  Alcotest.(check int) "no violations" 0 outcome.Scenario.violations;
  Alcotest.(check bool) "still unknown by name" true
    (Option.is_none (Dq_harness.Registry.find "dqvl-opt"))

let () =
  Alcotest.run "bench"
    [
      ( "json",
        [ Alcotest.test_case "reads the aoi writer" `Quick test_aoi_json ] );
      ( "scenarios",
        [ Alcotest.test_case "registry shape" `Quick test_registry ] );
      ( "pipeline",
        [
          Alcotest.test_case "run -> render -> compare" `Quick test_pipeline_end_to_end;
          Alcotest.test_case "rendered results are deterministic" `Quick
            test_results_deterministic;
          Alcotest.test_case "builder passed by value" `Quick test_builder_by_value;
        ] );
    ]
