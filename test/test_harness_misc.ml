(* Odds and ends of the harness: table rendering of experiment rows,
   the virtual-time log sink, and registry coherence. *)

module E = Dq_harness.Experiment
module Render = Dq_harness.Render
module Registry = Dq_harness.Registry
module Table = Dq_util.Table
module Engine = Dq_sim.Engine

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let row protocol overall =
  {
    E.protocol;
    read_ms = overall -. 1.;
    write_ms = overall +. 1.;
    overall_ms = overall;
    completed = 10;
    failed = 0;
    violations = 0;
  }

let test_render_response_rows () =
  let t = Render.response_rows ~title:"proto" [ row "dqvl" 20.; row "majority" 180. ] in
  let out = Table.render t in
  Alcotest.(check bool) "has dqvl" true (contains ~needle:"dqvl" out);
  Alcotest.(check bool) "has value" true (contains ~needle:"180.0" out)

let test_render_sweep () =
  let t =
    Render.sweep ~title:"fig" ~x_label:"w"
      ~x_of:(Printf.sprintf "%.1f")
      [ (0.1, [ row "a" 10.; row "b" 20. ]); (0.2, [ row "a" 30.; row "b" 40. ]) ]
  in
  let out = Table.render t in
  Alcotest.(check bool) "columns from protocols" true (contains ~needle:"a" out);
  Alcotest.(check bool) "values in place" true (contains ~needle:"30.0" out)

let test_render_sweep_missing_protocol () =
  let t =
    Render.sweep ~title:"fig" ~x_label:"w"
      ~x_of:(Printf.sprintf "%.1f")
      [ (0.1, [ row "a" 10.; row "b" 20. ]); (0.2, [ row "a" 30. ]) ]
  in
  let out = Table.render t in
  Alcotest.(check bool) "dash for missing" true (contains ~needle:"-" out)

let test_render_series_formats () =
  let t =
    Render.series ~title:"u" ~x_label:"n" ~x_of:string_of_int ~fmt:Render.scientific
      [ (3, [ ("x", 1.5e-9) ]) ]
  in
  Alcotest.(check bool) "scientific" true (contains ~needle:"1.50e-09" (Table.render t))

let test_scientific () =
  Alcotest.(check string) "formats" "6.05e-13" (Render.scientific 6.05e-13)

let test_sim_log_stamps_time () =
  let engine = Engine.create () in
  let buf = Buffer.create 128 in
  let ppf = Format.formatter_of_buffer buf in
  Dq_sim.Sim_log.attach ~ppf engine;
  let bus = Engine.telemetry engine in
  let ev = Dq_telemetry.Event.Note { src = "test"; msg = lazy "later" } in
  ignore (Engine.schedule engine ~delay:123. (fun () -> Dq_telemetry.Bus.emit bus ev));
  Engine.run engine;
  Format.pp_print_flush ppf ();
  let line = Buffer.contents buf in
  let prefix = "[    123.0ms] [" in
  Alcotest.(check string)
    "stamped with virtual time" prefix
    (String.sub line 0 (min (String.length prefix) (String.length line)))

let test_registry_names_are_unique () =
  let builders =
    Registry.paper_five
    @ [
        Registry.dq_basic;
        Registry.atomic_majority;
        Registry.dqvl_atomic;
        Registry.grid ~rows:3 ~cols:3;
      ]
  in
  let names = List.map (fun (b : Registry.builder) -> b.Registry.name) builders in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_registry_builders_run () =
  (* Every registered builder stands up a working cluster. *)
  let topology = Dq_net.Topology.make ~n_servers:9 ~n_clients:1 () in
  let key = Dq_storage.Key.make ~volume:0 ~index:0 in
  List.iter
    (fun (builder : Registry.builder) ->
      let engine = Engine.create ~seed:14L () in
      let instance = builder.Registry.build engine topology () in
      let got = ref None in
      let module R = Dq_intf.Replication in
      instance.Registry.api.R.submit_write ~client:9 ~server:0 key "v" (fun _ ->
          instance.Registry.api.R.submit_read ~client:9 ~server:1 key (fun r ->
              got := Some r.R.read_value));
      Engine.run ~until:120_000. engine;
      instance.Registry.api.R.quiesce ();
      match !got with
      | Some v ->
        (* ROWA-Async may legitimately return a stale (initial) value at
           a replica the write has not reached. *)
        Alcotest.(check bool) (builder.Registry.name ^ " responds") true (v = "v" || v = "")
      | None -> Alcotest.failf "%s: read never completed" builder.Registry.name)
    (Registry.paper_five @ [ Registry.dq_basic; Registry.atomic_majority ])

let () =
  Alcotest.run "harness_misc"
    [
      ( "render",
        [
          Alcotest.test_case "response rows" `Quick test_render_response_rows;
          Alcotest.test_case "sweep" `Quick test_render_sweep;
          Alcotest.test_case "sweep missing" `Quick test_render_sweep_missing_protocol;
          Alcotest.test_case "series" `Quick test_render_series_formats;
          Alcotest.test_case "scientific" `Quick test_scientific;
        ] );
      ("logging", [ Alcotest.test_case "reporter" `Quick test_sim_log_stamps_time ]);
      ( "registry",
        [
          Alcotest.test_case "unique names" `Quick test_registry_names_are_unique;
          Alcotest.test_case "builders run" `Slow test_registry_builders_run;
        ] );
    ]
