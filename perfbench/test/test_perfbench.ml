(* The benchmark's own helpers: percentiles with their sample counts,
   the metric table against the definition format, and the shape of
   the JSON it prints. *)

open Perfbench

let float_eq = Alcotest.float 1e-9

let test_percentile_interpolates () =
  let t = Report.percentile [ 4.; 1.; 3.; 2. ] 50. in
  Alcotest.check float_eq "median of 1..4" 2.5 t.Report.value;
  Alcotest.(check int) "samples" 4 t.Report.samples;
  Alcotest.check float_eq "p0 is the minimum" 1. (Report.percentile [ 4.; 1.; 3. ] 0.).Report.value;
  Alcotest.check float_eq "p100 is the maximum" 4.
    (Report.percentile [ 4.; 1.; 3. ] 100.).Report.value

let test_percentile_tail_count () =
  let samples n = List.init n (fun i -> float_of_int (i + 1)) in
  let p99 n = Report.percentile (samples n) 99. in
  Alcotest.(check int) "1000 samples leave 10 beyond p99" 10 (p99 1000).Report.beyond;
  Alcotest.(check int) "999 samples leave 9" 9 (p99 999).Report.beyond;
  Alcotest.(check int) "50% of 10 leaves 5" 5 (Report.percentile (samples 10) 50.).Report.beyond;
  Alcotest.check float_eq "p99 of 1..1000" 990.01 (p99 1000).Report.value

let test_percentile_empty () =
  let t = Report.percentile [] 99. in
  Alcotest.(check bool) "nan" true (Float.is_nan t.Report.value);
  Alcotest.(check int) "no samples" 0 t.Report.samples

let names ms = List.map (fun (m : Report.metric) -> m.Report.name) ms

let test_metric_table () =
  let all = Report.end_to_end @ Report.per_layer in
  List.iter
    (fun (m : Report.metric) ->
      Alcotest.(check bool) ("name " ^ m.Report.name) true (Report.valid_name m.Report.name);
      Alcotest.(check bool) ("unit " ^ m.Report.unit) true (Report.valid_unit m.Report.unit))
    all;
  let sorted = List.sort_uniq String.compare (names all) in
  Alcotest.(check int) "names are unique" (List.length all) (List.length sorted);
  let n_e2e = List.length Report.end_to_end and n_layer = List.length Report.per_layer in
  Alcotest.(check bool) "1-16 end-to-end metrics" true (n_e2e >= 1 && n_e2e <= 16);
  Alcotest.(check bool) "1-128 per-layer metrics" true (n_layer >= 1 && n_layer <= 128);
  let bounds =
    List.map
      (fun (m : Report.metric) ->
        match m.Report.bound with
        | Some b when b > 0. && b <= 0.25 -> b
        | Some _ | None -> Alcotest.failf "%s: end-to-end bound must be in (0, 0.25]" m.Report.name)
      Report.end_to_end
  in
  List.iter
    (fun (m : Report.metric) ->
      Alcotest.(check bool) (m.Report.name ^ " has no bound") true (Option.is_none m.Report.bound))
    Report.per_layer;
  match Report.find "setup_s" with
  | Some { Report.unit = "s"; better = Report.Lower; bound = Some b; _ } ->
    Alcotest.(check bool) "setup_s has the largest bound" true
      (List.for_all (fun other -> b >= other) bounds)
  | Some _ | None -> Alcotest.fail "setup_s must be a lower-is-better end-to-end metric in s"

let test_valid_name_rejects () =
  List.iter
    (fun bad -> Alcotest.(check bool) bad false (Report.valid_name bad))
    [ ""; "_x"; ".x"; "a b"; "a/b"; String.make 65 'a' ];
  List.iter
    (fun bad -> Alcotest.(check bool) bad false (Report.valid_unit bad))
    [ ""; "a b"; String.make 17 's' ]

let test_number_round_trips () =
  List.iter
    (fun v ->
      let s = Report.number v in
      Alcotest.check float_eq s v (float_of_string s))
    [ 0.; 496.; 0.1; 16.100000000005821; 1e-9; 34608.801705676648; 2.5e20 ];
  Alcotest.(check string) "integers print bare" "496" (Report.number 496.);
  Alcotest.(check string) "shortest form" "0.15" (Report.number 0.15)

let test_result_line_shape () =
  let metric name =
    match Report.find name with Some m -> m | None -> Alcotest.failf "no metric %s" name
  in
  Alcotest.(check string) "result line"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"ops_per_s\": \
     {\"value\": 12.5, \"unit\": \"ops/s\"}, \"setup_s\": {\"value\": 2, \"unit\": \"s\"}}}"
    (Report.result_line ~correct:true ~attempted:3 ~failed:0
       [ (metric "ops_per_s", 12.5); (metric "setup_s", 2.) ])

let test_workloads () =
  let n = List.length Workload.all in
  Alcotest.(check bool) "2-8 workloads" true (n >= 2 && n <= 8);
  List.iter
    (fun (w : Workload.t) ->
      Alcotest.(check bool) ("name " ^ w.Workload.name) true (Report.valid_name w.Workload.name);
      Alcotest.(check bool) (w.Workload.name ^ ": why is one line of at most 200 characters") true
        (String.length w.Workload.why <= 200 && not (String.contains w.Workload.why '\n'));
      Alcotest.(check string)
        (w.Workload.name ^ ": DQVL first")
        "dqvl-paper" (List.hd w.Workload.protocols))
    Workload.all

let test_definition_file () =
  let on_disk = In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all in
  Alcotest.(check string) "BENCHMARK.json is main.exe --spec" (Definition.json ()) on_disk

let test_span_self_time () =
  let spans = Spans.create () in
  Spans.within (Some spans) "outer" (fun () ->
      Unix.sleepf 0.002;
      Spans.within (Some spans) "inner" (fun () -> Unix.sleepf 0.002));
  match Spans.spans spans with
  | [ outer; inner ] ->
    Alcotest.(check (option int)) "inner's parent" (Some outer.Spans.id) inner.Spans.parent;
    let duration (s : Spans.span) = s.Spans.stop_s -. s.Spans.start_s in
    Alcotest.check float_eq "self = duration - children"
      (duration outer -. duration inner)
      (Spans.self_time spans outer);
    Alcotest.check float_eq "a leaf's self time is its duration" (duration inner)
      (Spans.self_time spans inner)
  | _ -> Alcotest.fail "expected two spans"

let () =
  Alcotest.run "perfbench"
    [
      ( "percentile",
        [
          Alcotest.test_case "interpolates" `Quick test_percentile_interpolates;
          Alcotest.test_case "tail count" `Quick test_percentile_tail_count;
          Alcotest.test_case "empty" `Quick test_percentile_empty;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "table" `Quick test_metric_table;
          Alcotest.test_case "invalid names" `Quick test_valid_name_rejects;
        ] );
      ( "json",
        [
          Alcotest.test_case "numbers round-trip" `Quick test_number_round_trips;
          Alcotest.test_case "result line" `Quick test_result_line_shape;
          Alcotest.test_case "definition file" `Quick test_definition_file;
        ] );
      ("workloads", [ Alcotest.test_case "definitions" `Quick test_workloads ]);
      ("spans", [ Alcotest.test_case "self time" `Quick test_span_self_time ]);
    ]
