(* The bench library: the hand-rolled JSON reader, the metric differ
   (direction classification, noise band, missing-metric gating,
   scenario-contract errors), and the scenario -> results -> diff
   pipeline end to end on real smoke runs. *)

module Json = Dq_bench.Json
module Diff = Dq_bench.Diff
module Scenario = Dq_bench.Scenario
module Results = Dq_bench.Results
module Aoi = Dq_telemetry.Aoi
module Event = Dq_telemetry.Event

let direction =
  let pp ppf (d : Diff.direction) =
    Format.pp_print_string ppf
      (match d with
      | Diff.Lower_better -> "lower-better"
      | Diff.Higher_better -> "higher-better"
      | Diff.Neutral -> "neutral"
      | Diff.Skip -> "skip")
  in
  Alcotest.testable pp (fun (a : Diff.direction) b ->
      match a, b with
      | Diff.Lower_better, Diff.Lower_better
      | Diff.Higher_better, Diff.Higher_better
      | Diff.Neutral, Diff.Neutral
      | Diff.Skip, Diff.Skip -> true
      | _ -> false)

let ok = function
  | Ok r -> r
  | Error msg -> Alcotest.failf "expected a report, got error: %s" msg

let err = function
  | Ok _ -> Alcotest.fail "expected an error, got a report"
  | Error msg -> msg

(* --- the JSON reader ------------------------------------------------------ *)

let test_parse_basics () =
  let j =
    Json.parse
      {|{"a": 1.5, "b": [true, null, "x\nA"], "neg": -2e3, "c": {"d": 7}}|}
  in
  Alcotest.(check (option (float 0.))) "number" (Some 1.5)
    (Option.bind (Json.member "a" j) Json.num);
  Alcotest.(check (option (float 0.))) "exponent" (Some (-2000.))
    (Option.bind (Json.member "neg" j) Json.num);
  Alcotest.(check (option (float 0.))) "nested member" (Some 7.)
    (Option.bind (Option.bind (Json.member "c" j) (Json.member "d")) Json.num);
  Alcotest.(check (option string)) "escapes decoded" (Some "x\nA")
    (match Option.bind (Json.member "b" j) Json.arr with
    | Some [ _; _; s ] -> Json.str s
    | _ -> None);
  Alcotest.(check (option int)) "array length" (Some 3)
    (Option.map List.length (Option.bind (Json.member "b" j) Json.arr));
  Alcotest.(check (option (float 0.))) "missing member" None
    (Option.bind (Json.member "zzz" j) Json.num)

let test_flatten () =
  let j = Json.parse {|{"a": 1.5, "b": [true, null, "skip"], "c": {"d": 7, "e": 8}}|} in
  Alcotest.(check (list (pair string (float 0.))))
    "dotted paths, [i] indices, bools as 0/1, strings/nulls dropped"
    [ ("a", 1.5); ("b[0]", 1.); ("c.d", 7.); ("c.e", 8.) ]
    (Json.flatten j)

let test_parse_errors () =
  let raises s =
    match Json.parse s with
    | _ -> Alcotest.failf "accepted malformed input %S" s
    | exception Json.Error _ -> ()
  in
  raises "{";
  raises "[1, 2,]";
  raises "{\"a\": 1} trailing";
  raises "\"unterminated";
  raises "nul";
  raises "{\"a\" 1}"

(* The AoI sink's JSON block must be readable by the bench reader —
   the two hand-rolled halves meet in the results files. *)
let test_aoi_json_round_trip () =
  let t = Aoi.create () in
  let sink = Aoi.sink t in
  sink ~time_ms:100.
    (Event.Op_served
       { op = 0; client = 0; kind = "write"; key = "k"; lc_count = 1; lc_node = 0; start_ms = 50. });
  sink ~time_ms:150.
    (Event.Op_served
       { op = 1; client = 0; kind = "read"; key = "k"; lc_count = 1; lc_node = 0; start_ms = 120. });
  let j = Json.parse (Aoi.to_json t) in
  Alcotest.(check (option (float 0.))) "reads_checked survives" (Some 1.)
    (Option.bind (Json.member "reads_checked" j) Json.num);
  Alcotest.(check (option (float 0.))) "mean_read_age_ms survives" (Some 50.)
    (Option.bind (Json.member "mean_read_age_ms" j) Json.num);
  Alcotest.(check bool) "read-age histogram present" true
    (Option.is_some (Json.member "read_age_ms" j))

(* --- direction classification --------------------------------------------- *)

let test_direction_of () =
  let check path want = Alcotest.check direction path want (Diff.direction_of path) in
  check "base.wall.events_per_sec" Diff.Skip;
  check "base.wall.wall_s" Diff.Skip;
  check "base.latency_ms.read.p99" Diff.Lower_better;
  check "base.aoi.stale_fraction" Diff.Lower_better;
  check "base.messages.bytes_per_request" Diff.Lower_better;
  check "base.failed" Diff.Lower_better;
  check "base.completed" Diff.Higher_better;
  check "base.throughput_per_s" Diff.Higher_better;
  check "base.latency_ms.read.count" Diff.Neutral;
  check "base.aoi.read_age_ms.buckets[3]" Diff.Neutral;
  check "base.sim_events" Diff.Neutral;
  check "base.staleness_oracle.checked" Diff.Neutral;
  check "scenario-echo.wan_scale" Diff.Neutral

(* --- the differ on synthetic documents ------------------------------------ *)

let doc ?(schema = "3") ?(version = "1") ?(name = "baseline") ?(kind = "scenario")
    ?(band = "0.1") results =
  Json.parse
    (Printf.sprintf
       {|{"schema": %s, "kind": "%s", "scenario": {"name": "%s", "version": %s},
          "noise_band": %s, "results": {"p": {%s}}}|}
       schema kind name version band results)

let test_diff_self_passes () =
  let j = doc {|"latency_ms": {"p50": 10, "count": 5}, "completed": 100|} in
  let r = ok (Diff.diff j j) in
  Alcotest.(check bool) "passes" true (Diff.passed r);
  Alcotest.(check int) "no regressions" 0 (List.length r.Diff.regressions);
  Alcotest.(check int) "gated + neutral compared" 3 r.Diff.compared

let test_diff_directions_gate () =
  let old_j = doc {|"p50": 10, "completed": 100|} in
  (* Latency doubling regresses; completion halving regresses. *)
  let worse = doc {|"p50": 20, "completed": 100|} in
  let r = ok (Diff.diff old_j worse) in
  Alcotest.(check bool) "latency up fails" false (Diff.passed r);
  Alcotest.(check int) "one regression" 1 (List.length r.Diff.regressions);
  let fewer = doc {|"p50": 10, "completed": 50|} in
  Alcotest.(check bool) "completed down fails" false
    (Diff.passed (ok (Diff.diff old_j fewer)));
  (* The same movements in the good direction only improve. *)
  let better = doc {|"p50": 5, "completed": 200|} in
  let r = ok (Diff.diff old_j better) in
  Alcotest.(check bool) "improvements pass" true (Diff.passed r);
  Alcotest.(check int) "both improved" 2 (List.length r.Diff.improvements)

let test_diff_band () =
  let old_j = doc {|"p50": 100|} in
  let close = doc {|"p50": 109|} in
  Alcotest.(check bool) "within the 10% band" true (Diff.passed (ok (Diff.diff old_j close)));
  let far = doc {|"p50": 111|} in
  Alcotest.(check bool) "outside the band" false (Diff.passed (ok (Diff.diff old_j far)));
  Alcotest.(check bool) "explicit band overrides the file" true
    (Diff.passed (ok (Diff.diff ~band:0.2 old_j far)));
  (* The absolute floor: a 0 -> 0.5 move on a tiny metric stays inside
     band * max(|old|, 1). *)
  let zero = doc {|"p50": 0|} in
  let tiny = doc {|"p50": 0.05|} in
  Alcotest.(check bool) "absolute floor absorbs tiny drift" true
    (Diff.passed (ok (Diff.diff zero tiny)))

let test_diff_missing_and_added () =
  let old_j = doc {|"p50": 10, "p99": 50|} in
  let new_j = doc {|"p50": 10, "brand_new": 1|} in
  let r = ok (Diff.diff old_j new_j) in
  Alcotest.(check bool) "missing gated metric fails" false (Diff.passed r);
  Alcotest.(check (list string)) "which one" [ "p.p99" ] r.Diff.missing;
  Alcotest.(check (list string)) "added is noted, not gated" [ "p.brand_new" ] r.Diff.added

let test_diff_neutral_and_wall () =
  let old_j = doc {|"count": 5, "wall": {"events_per_sec": 1000}|} in
  let new_j = doc {|"count": 50, "wall": {"events_per_sec": 1}|} in
  let r = ok (Diff.diff old_j new_j) in
  Alcotest.(check bool) "neutral + wall never gate" true (Diff.passed r);
  Alcotest.(check int) "neutral drift reported" 1 (List.length r.Diff.changes);
  Alcotest.(check int) "wall not even compared" 1 r.Diff.compared

let test_diff_contract_errors () =
  let a = doc {|"p50": 10|} in
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
    n = 0 || go 0
  in
  Alcotest.(check bool) "version bump refuses comparison" true
    (contains ~sub:"version" (err (Diff.diff a (doc ~version:"2" {|"p50": 10|}))));
  Alcotest.(check bool) "scenario name mismatch" true
    (contains ~sub:"name" (err (Diff.diff a (doc ~name:"latency-focus" {|"p50": 10|}))));
  Alcotest.(check bool) "kind mismatch" true
    (contains ~sub:"kind" (err (Diff.diff a (doc ~kind:"sweep" {|"p50": 10|}))));
  Alcotest.(check bool) "schema 2 rejected" true
    (contains ~sub:"schema" (err (Diff.diff a (doc ~schema:"2" {|"p50": 10|}))));
  Alcotest.(check bool) "empty OLD rejected" true
    (contains ~sub:"results"
       (err (Diff.diff (Json.parse {|{"schema": 3, "kind": "scenario",
         "scenario": {"name": "baseline", "version": 1}}|}) a)))

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

(* --- end to end: run -> render -> parse -> diff ---------------------------- *)

(* One real smoke cell through the whole pipeline. The in-run
   cross-check already holds the AoI sink to the offline oracle; here
   the rendered document must parse with our own reader, carry the
   contract fields, self-diff clean, and flag an injected slowdown. *)
let test_pipeline_end_to_end () =
  let scenario = Scenario.baseline in
  let outcome =
    Scenario.run_protocol ~smoke:true ~seed:42L scenario ~protocol:"dqvl-paper"
  in
  let rendered = Results.render ~smoke:true ~seed:42L scenario [ outcome ] in
  let j = Json.parse rendered in
  Alcotest.(check (option (float 0.))) "schema 3" (Some 3.)
    (Option.bind (Json.member "schema" j) Json.num);
  Alcotest.(check (option string)) "scenario name" (Some "baseline")
    (Option.bind (Option.bind (Json.member "scenario" j) (Json.member "name")) Json.str);
  Alcotest.(check bool) "result keyed by protocol" true
    (Option.is_some (Option.bind (Json.member "results" j) (Json.member "dqvl-paper")));
  let r = ok (Diff.diff j j) in
  Alcotest.(check bool) "self-diff passes" true (Diff.passed r);
  Alcotest.(check bool) "a real document has many gated metrics" true (r.Diff.compared > 50);
  (* Injected regression: the same cell at doubled WAN delay must trip
     the gate — this is the property the CI job relies on. *)
  let slow =
    Scenario.run_protocol ~wan_scale:2. ~smoke:true ~seed:42L scenario
      ~protocol:"dqvl-paper"
  in
  let slow_j = Json.parse (Results.render ~smoke:true ~seed:42L scenario [ slow ]) in
  let r = ok (Diff.diff j slow_j) in
  Alcotest.(check bool) "doubled WAN delay is a regression" false (Diff.passed r);
  Alcotest.(check bool) "latency regressions reported" true
    (List.length r.Diff.regressions > 0)

(* Same seed, same cell: the rendered document is byte-stable (wall
   metrics are only emitted when a clock is injected, which tests never
   do) — the property that makes committed baselines meaningful. *)
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
        [
          Alcotest.test_case "parse + accessors" `Quick test_parse_basics;
          Alcotest.test_case "flatten" `Quick test_flatten;
          Alcotest.test_case "malformed input" `Quick test_parse_errors;
          Alcotest.test_case "reads the aoi writer" `Quick test_aoi_json_round_trip;
        ] );
      ( "diff",
        [
          Alcotest.test_case "direction classification" `Quick test_direction_of;
          Alcotest.test_case "self-diff passes" `Quick test_diff_self_passes;
          Alcotest.test_case "directions gate" `Quick test_diff_directions_gate;
          Alcotest.test_case "noise band" `Quick test_diff_band;
          Alcotest.test_case "missing gates, added notes" `Quick test_diff_missing_and_added;
          Alcotest.test_case "neutral + wall exempt" `Quick test_diff_neutral_and_wall;
          Alcotest.test_case "contract errors" `Quick test_diff_contract_errors;
        ] );
      ( "scenarios",
        [ Alcotest.test_case "registry shape" `Quick test_registry ] );
      ( "pipeline",
        [
          Alcotest.test_case "run -> render -> parse -> diff" `Quick
            test_pipeline_end_to_end;
          Alcotest.test_case "rendered results are deterministic" `Quick
            test_results_deterministic;
          Alcotest.test_case "builder passed by value" `Quick test_builder_by_value;
        ] );
    ]
