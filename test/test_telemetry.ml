(* The telemetry bus: fan-out, virtual-time stamping, off-path
   determinism (a subscribed sink must not change what the simulation
   computes), the metrics sink, and a golden Chrome trace_event
   document. *)

module Engine = Dq_sim.Engine
module Bus = Dq_telemetry.Bus
module Event = Dq_telemetry.Event
module Metrics = Dq_telemetry.Metrics
module Trace = Dq_telemetry.Trace
module Topology = Dq_net.Topology
module Spec = Dq_workload.Spec
module Driver = Dq_harness.Driver
module Registry = Dq_harness.Registry
module Stats = Dq_util.Stats

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* --- bus ----------------------------------------------------------------- *)

let test_unsubscribed_bus () =
  let engine = Engine.create () in
  let bus = Engine.telemetry engine in
  Alcotest.(check bool) "fresh bus has no sinks" false (Bus.subscribed bus);
  (* Emitting into a sink-less bus is a no-op, not an error. *)
  Bus.emit bus (Event.Note { src = "test"; msg = lazy "dropped on the floor" })

let test_fan_out_and_virtual_time () =
  let engine = Engine.create () in
  let bus = Engine.telemetry engine in
  let a = ref [] and b = ref [] in
  Bus.subscribe bus (fun ~time_ms ev -> a := (time_ms, ev) :: !a);
  Bus.subscribe bus (fun ~time_ms ev -> b := (time_ms, ev) :: !b);
  Alcotest.(check bool) "subscribed" true (Bus.subscribed bus);
  ignore
    (Engine.schedule engine ~delay:5. (fun () ->
         Bus.emit bus (Event.Span_begin { name = "x"; node = 0 })));
  ignore
    (Engine.schedule engine ~delay:12.5 (fun () ->
         Bus.emit bus (Event.Span_end { name = "x"; node = 0 })));
  Engine.run engine;
  let a = List.rev !a and b = List.rev !b in
  Alcotest.(check int) "first sink saw both events" 2 (List.length a);
  Alcotest.(check bool) "second sink saw the same stream" true (a = b);
  Alcotest.(check (list (float 1e-9)))
    "events stamped with the virtual clock at emission" [ 5.; 12.5 ] (List.map fst a)

(* A full protocol run publishes a stream whose timestamps never go
   backwards and match the engine clock's range. *)
let test_event_order_matches_virtual_time () =
  let engine = Engine.create ~seed:7L () in
  let times = ref [] in
  let cats = Hashtbl.create 8 in
  Bus.subscribe (Engine.telemetry engine) (fun ~time_ms ev ->
      times := time_ms :: !times;
      Hashtbl.replace cats (Event.cat ev) ());
  let topology = Topology.make ~n_servers:5 ~n_clients:2 () in
  let builder = Registry.dqvl () in
  let instance = builder.Registry.build engine topology () in
  let config = { (Driver.default_config Spec.default) with Driver.ops_per_client = 15 } in
  let _result = Driver.run engine topology instance.Registry.api config in
  let times = List.rev !times in
  Alcotest.(check bool) "events were published" true (List.length times > 100);
  let monotone =
    fst
      (List.fold_left
         (fun (ok, prev) t -> (ok && t >= prev, t))
         (true, 0.) times)
  in
  Alcotest.(check bool) "timestamps non-decreasing" true monotone;
  Alcotest.(check bool) "final stamp within the run" true
    (List.fold_left Float.max 0. times <= Engine.now engine);
  List.iter
    (fun cat ->
      Alcotest.(check bool) (cat ^ " events present") true (Hashtbl.mem cats cat))
    [ "msg"; "op"; "lease"; "cache"; "rpc" ]

(* --- off-path determinism ------------------------------------------------- *)

(* The same seed must produce bit-identical results whether or not a
   sink is attached: telemetry only observes, it never draws from the
   RNG or schedules events. *)
let run_dqvl ~subscribe () =
  let engine = Engine.create ~seed:21L () in
  if subscribe then
    Bus.subscribe (Engine.telemetry engine) (fun ~time_ms:_ _ -> ());
  let topology = Topology.make ~n_servers:5 ~n_clients:3 () in
  let builder = Registry.dqvl () in
  let instance = builder.Registry.build engine topology () in
  let spec = { Spec.default with Spec.write_ratio = 0.3 } in
  let config = { (Driver.default_config spec) with Driver.ops_per_client = 25 } in
  Driver.run engine topology instance.Registry.api config

let test_sink_does_not_perturb_run () =
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

(* --- metrics sink --------------------------------------------------------- *)

let test_metrics_by_label () =
  let m = Metrics.create () in
  Metrics.record_msg m ~label:"a" ~local:false ~bytes:10;
  Metrics.record_msg m ~label:"a" ~local:true ~bytes:0;
  Metrics.record_msg m ~label:"b" ~local:false ~bytes:5;
  Alcotest.(check int) "remote total" 2 (Metrics.remote_total m);
  Alcotest.(check int) "local total" 1 (Metrics.local_total m);
  Alcotest.(check int) "remote bytes" 15 (Metrics.remote_bytes m);
  Alcotest.(check (list (pair string int)))
    "by_label is remote-only by default"
    [ ("a", 1); ("b", 1) ]
    (Metrics.by_label m);
  Alcotest.(check (list (pair string int)))
    "include_local folds in local deliveries"
    [ ("a", 2); ("b", 1) ]
    (Metrics.by_label ~include_local:true m);
  Alcotest.(check (list (pair string int)))
    "local_by_label" [ ("a", 1) ] (Metrics.local_by_label m)

(* Labels are matched by content: a label built at run time lands in
   the same cell as the literal it equals, and reset forgets both. *)
let test_metrics_equal_labels_share_a_cell () =
  let m = Metrics.create () in
  let built = String.concat "" [ "in"; "val" ] in
  Metrics.record_msg m ~label:"inval" ~local:false ~bytes:3;
  Metrics.record_msg m ~label:built ~local:false ~bytes:4;
  Metrics.record_msg m ~label:"inval" ~local:true ~bytes:0;
  Metrics.record_msg m ~label:built ~local:true ~bytes:0;
  Alcotest.(check (list (pair string int))) "one remote row" [ ("inval", 2) ] (Metrics.by_label m);
  Alcotest.(check (list (pair string int))) "one bytes row" [ ("inval", 7) ]
    (Metrics.bytes_by_label m);
  Alcotest.(check (list (pair string int))) "one local row" [ ("inval", 2) ]
    (Metrics.local_by_label m);
  Metrics.reset m;
  Metrics.record_msg m ~label:built ~local:false ~bytes:0;
  Alcotest.(check (list (pair string int))) "counts restart after reset" [ ("inval", 1) ]
    (Metrics.by_label m)

let test_metrics_sink_counts_events () =
  let m = Metrics.create () in
  let sink = Metrics.sink m in
  sink ~time_ms:1. (Event.Msg_sent { src = 0; dst = 1; label = "x"; bytes = 8; local = false });
  sink ~time_ms:2. (Event.Msg_delivered { src = 0; dst = 1; label = "x" });
  sink ~time_ms:3.
    (Event.Op_complete { op = 0; client = 9; kind = "read"; start_ms = 0.; latency_ms = 3. });
  sink ~time_ms:4.
    (Event.Op_complete { op = 1; client = 9; kind = "write"; start_ms = 0.; latency_ms = 4. });
  sink ~time_ms:5. (Event.Fault_injected { label = "boom" });
  Alcotest.(check int) "msg_sent counted" 1 (Metrics.event_count m "msg_sent");
  Alcotest.(check int) "msg_delivered counted" 1 (Metrics.event_count m "msg_delivered");
  Alcotest.(check int) "op_complete counted" 2 (Metrics.event_count m "op_complete");
  Alcotest.(check int) "fault counted" 1 (Metrics.event_count m "fault_injected");
  Alcotest.(check int) "unseen kind is 0" 0 (Metrics.event_count m "node_crash");
  Alcotest.(check int) "msg accounting fed" 1 (Metrics.remote_total m);
  Alcotest.(check int) "read histogram fed" 1
    (Dq_util.Histogram.count (Metrics.read_latency m));
  Alcotest.(check int) "write histogram fed" 1
    (Dq_util.Histogram.count (Metrics.write_latency m));
  let json = Metrics.to_json m in
  Alcotest.(check bool) "json mentions event counts" true
    (contains ~sub:"\"op_complete\"" json)

(* --- golden trace --------------------------------------------------------- *)

let test_trace_golden () =
  let t = Trace.create () in
  Trace.set_process_name t ~pid:3 "golden scenario";
  Trace.record ~pid:3 t ~time_ms:1.5
    (Event.Msg_sent { src = 0; dst = 1; label = "ping"; bytes = 64; local = false });
  Trace.record ~pid:3 t ~time_ms:3.25
    (Event.Op_complete { op = 7; client = 9; kind = "read"; start_ms = 2.; latency_ms = 1.25 });
  Trace.record ~pid:3 t ~time_ms:4.
    (Event.Fault_injected { label = "net.partition/2" });
  Alcotest.(check int) "record count" 4 (Trace.count t);
  let expected =
    "{\"traceEvents\": [\n"
    ^ String.concat ",\n"
        [
          "  {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3,\"tid\":0,\"args\":{\"name\":\"golden scenario\"}}";
          "  {\"name\":\"send ping\",\"cat\":\"msg\",\"ph\":\"i\",\"ts\":1500,\"pid\":3,\"tid\":0,\"s\":\"t\",\"args\":{\"src\":0,\"dst\":1,\"bytes\":64,\"local\":false}}";
          "  {\"name\":\"read\",\"cat\":\"op\",\"ph\":\"X\",\"ts\":2000,\"dur\":1250,\"pid\":3,\"tid\":9,\"args\":{\"op\":7,\"client\":9,\"latency_ms\":1.25}}";
          "  {\"name\":\"net.partition/2\",\"cat\":\"fault\",\"ph\":\"i\",\"ts\":4000,\"pid\":3,\"tid\":-1,\"s\":\"t\",\"args\":{}}";
        ]
    ^ "\n]}\n"
  in
  Alcotest.(check string) "golden trace_event document" expected (Trace.contents t)

let test_trace_escapes_strings () =
  let t = Trace.create () in
  Trace.record t ~time_ms:0.
    (Event.Note { src = "a\"b"; msg = lazy "line1\nline2\\end" });
  Alcotest.(check bool) "quote escaped" true
    (contains ~sub:{|note a\"b|} (Trace.contents t));
  Alcotest.(check bool) "newline escaped" true
    (contains ~sub:{|line1\nline2\\end|} (Trace.contents t))

(* --- event kinds ------------------------------------------------------------ *)

(* One value of every constructor, both [Cache_read] variants, with the
   slug each must be counted under. *)
let one_of_each =
  [
    (Event.Msg_sent { src = 0; dst = 1; label = "l"; bytes = 1; local = false }, "msg_sent");
    (Event.Msg_delivered { src = 0; dst = 1; label = "l" }, "msg_delivered");
    (Event.Msg_dropped { src = 0; dst = 1; label = "l"; reason = "loss" }, "msg_dropped");
    (Event.Op_start { op = 0; client = 0; kind = "read"; key = "k" }, "op_start");
    ( Event.Op_complete { op = 0; client = 0; kind = "read"; start_ms = 0.; latency_ms = 1. },
      "op_complete" );
    ( Event.Op_served
        { op = 0; client = 0; kind = "read"; key = "k"; lc_count = 1; lc_node = 0; start_ms = 0. },
      "op_served" );
    (Event.Op_timeout { op = 0; client = 0; kind = "read" }, "op_timeout");
    (Event.Op_give_up { op = 0; client = 0; kind = "read" }, "op_give_up");
    ( Event.Lease_granted { node = 0; peer = 1; volume = 0; lease_ms = 1000.; epoch = 0 },
      "lease_granted" );
    (Event.Lease_expired { node = 0; peer = 1; volume = 0 }, "lease_expired");
    (Event.Inval_through { node = 0; peer = 1; key = "k" }, "inval_through");
    (Event.Inval_suppressed { node = 0; key = "k" }, "inval_suppressed");
    (Event.Inval_delayed { node = 0; peer = 1; key = "k" }, "inval_delayed");
    (Event.Epoch_advance { node = 0; peer = 1; volume = 0; epoch = 1 }, "epoch_advance");
    (Event.Cache_read { node = 0; key = "k"; hit = true }, "read_hit");
    (Event.Cache_read { node = 0; key = "k"; hit = false }, "read_miss");
    (Event.Rpc_round { node = 0; tag = "t"; round = 0 }, "rpc_round");
    (Event.Rpc_give_up { node = 0; tag = "t"; rounds = 3 }, "rpc_give_up");
    (Event.Link_cut { src = 0; dst = 1 }, "link_cut");
    (Event.Link_uncut { src = 0; dst = 1 }, "link_uncut");
    (Event.Node_crash { node = 0 }, "node_crash");
    (Event.Node_wipe { node = 0 }, "node_wipe");
    (Event.Node_recover { node = 0 }, "node_recover");
    (Event.Recovery_start { node = 0 }, "recovery_start");
    ( Event.Recovery_done { node = 0; bytes = 10; objects = 1; duration_ms = 5. },
      "recovery_done" );
    (Event.Fault_injected { label = "f" }, "fault_injected");
    (Event.Clock_skew { node = 0; skew = 1e-6 }, "clock_skew");
    (Event.Span_begin { name = "s"; node = 0 }, "span_begin");
    (Event.Span_end { name = "s"; node = 0 }, "span_end");
    (Event.Note { src = "test"; msg = lazy "n" }, "note");
  ]

let test_kind_table () =
  Alcotest.(check int) "one sample per kind" Event.kinds (List.length one_of_each);
  List.iter
    (fun (ev, slug) ->
      Alcotest.(check string) ("name of " ^ slug) slug (Event.name ev);
      Alcotest.(check string) ("table entry of " ^ slug) slug (Event.kind_name (Event.kind ev)))
    one_of_each;
  Alcotest.(check (list int))
    "kinds are distinct and dense"
    (List.init Event.kinds Fun.id)
    (List.sort Int.compare (List.map (fun (ev, _) -> Event.kind ev) one_of_each))

(* Metrics' kind-indexed counters against a by-name reference model:
   a map from slug to count, cleared by reset. [None] in the stream is
   a reset. *)
module Names = Map.Make (String)

let counts_match_model =
  let samples = Array.of_list (List.map fst one_of_each) in
  let step =
    QCheck.Gen.(
      frequency
        [ (1, return None); (20, map (fun i -> Some i) (int_bound (Array.length samples - 1))) ])
  in
  QCheck.Test.make ~name:"event counts equal a by-name model, reset included" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list (option int))
       QCheck.Gen.(list_size (int_bound 200) step))
    (fun stream ->
      let m = Metrics.create () in
      let sink = Metrics.sink m in
      let model =
        List.fold_left
          (fun model step ->
            match step with
            | None ->
              Metrics.reset m;
              Names.empty
            | Some i ->
              let ev = samples.(i) in
              sink ~time_ms:0. ev;
              Names.update (Event.name ev)
                (fun n -> Some (1 + Option.value n ~default:0))
                model)
          Names.empty stream
      in
      Metrics.event_counts m = Names.bindings model
      && List.for_all
           (fun (_, slug) ->
             Metrics.event_count m slug = Option.value (Names.find_opt slug model) ~default:0)
           one_of_each
      && Metrics.event_count m "no_such_kind" = 0)

(* --- Note text on demand --------------------------------------------------- *)

(* With only Metrics and Aoi subscribed, a DQVL run formats no Note
   text; handing the same events to Trace renders every one. *)
let test_notes_render_on_demand () =
  let engine = Engine.create ~seed:21L () in
  let bus = Engine.telemetry engine in
  Bus.subscribe bus (Metrics.sink (Metrics.create ()));
  Bus.subscribe bus (Dq_telemetry.Aoi.sink (Dq_telemetry.Aoi.create ()));
  let notes = ref [] in
  Bus.subscribe bus (fun ~time_ms ev ->
      match ev with Event.Note _ -> notes := (time_ms, ev) :: !notes | _ -> ());
  let topology = Topology.make ~n_servers:3 ~n_clients:2 () in
  let instance = (Registry.dqvl ()).Registry.build engine topology () in
  let spec =
    { Spec.default with Spec.write_ratio = 0.5; sharing = Spec.Shared_uniform { objects = 1 } }
  in
  let config = { (Driver.default_config spec) with Driver.ops_per_client = 10 } in
  let _result = Driver.run engine topology instance.Registry.api config in
  let notes = List.rev !notes in
  let rendered () =
    List.filter
      (function _, Event.Note { msg; _ } -> Lazy.is_val msg | _ -> false)
      notes
  in
  Alcotest.(check bool) "the run published notes" true (List.length notes > 10);
  Alcotest.(check int) "no note rendered by counting sinks" 0 (List.length (rendered ()));
  let t = Trace.create () in
  List.iter (fun (time_ms, ev) -> Trace.record t ~time_ms ev) notes;
  Alcotest.(check int) "trace renders every note" (List.length notes)
    (List.length (rendered ()));
  Alcotest.(check bool) "oqs text in the trace" true
    (contains ~sub:"invalidated by" (Trace.contents t));
  Alcotest.(check bool) "front-end text in the trace" true
    (contains ~sub:"assigned lc=" (Trace.contents t))

let () =
  Alcotest.run "telemetry"
    [
      ( "bus",
        [
          Alcotest.test_case "unsubscribed bus is silent" `Quick test_unsubscribed_bus;
          Alcotest.test_case "fan-out + virtual-time stamps" `Quick
            test_fan_out_and_virtual_time;
          Alcotest.test_case "event order matches virtual time" `Quick
            test_event_order_matches_virtual_time;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "sink does not perturb the run" `Quick
            test_sink_does_not_perturb_run;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "by_label / include_local" `Quick test_metrics_by_label;
          Alcotest.test_case "sink counts events" `Quick test_metrics_sink_counts_events;
          Alcotest.test_case "equal labels share a cell" `Quick
            test_metrics_equal_labels_share_a_cell;
          QCheck_alcotest.to_alcotest counts_match_model;
        ] );
      ( "kinds",
        [
          Alcotest.test_case "name agrees with the kind table" `Quick test_kind_table;
          Alcotest.test_case "notes render on demand" `Quick test_notes_render_on_demand;
        ] );
      ( "trace",
        [
          Alcotest.test_case "golden trace_event JSON" `Quick test_trace_golden;
          Alcotest.test_case "string escaping" `Quick test_trace_escapes_strings;
        ] );
    ]
