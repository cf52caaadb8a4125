(* dqr - the dual-quorum replication experiment driver.

   Subcommands:
     fig <id>        regenerate one of the paper's figures (6a..9b)
     ablation <id>   run one of the ablation studies
     run             run a custom workload against a chosen protocol
     avail           print the analytical availability model
     overhead        print the analytical overhead model *)

module E = Dq_harness.Experiment
module Render = Dq_harness.Render
module Registry = Dq_harness.Registry
module Driver = Dq_harness.Driver
module Checker = Dq_harness.Regular_checker
module Spec = Dq_workload.Spec
module Table = Dq_util.Table
open Cmdliner

let seed_arg =
  let doc = "Random seed (the whole simulation is deterministic in it)." in
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc)

let ops_arg default =
  let doc = "Operations per application client." in
  Arg.(value & opt int default & info [ "ops" ] ~docv:"N" ~doc)

module Csv = Dq_harness.Csv

(* --- fig ---------------------------------------------------------------- *)

module Pool = Dq_par.Pool

let csv_note = function
  | Some path -> Printf.printf "(wrote %s)\n" path
  | None -> ()

let f2 x = Printf.sprintf "%.2f" x

let csv_series csv_dir ~name ~x_label ~x_of points =
  csv_note (Option.map (fun dir -> Csv.write_series ~dir ~name ~x_label ~x_of points) csv_dir)

let csv_rows csv_dir ~name rows =
  csv_note
    (Option.map
       (fun dir ->
         Csv.write_rows ~dir ~name
           ~header:[ "protocol"; "read_ms"; "write_ms"; "overall_ms"; "completed"; "failed" ]
           (List.map
              (fun (r : E.response_row) ->
                [
                  r.E.protocol;
                  Printf.sprintf "%.3f" r.E.read_ms;
                  Printf.sprintf "%.3f" r.E.write_ms;
                  Printf.sprintf "%.3f" r.E.overall_ms;
                  string_of_int r.E.completed;
                  string_of_int r.E.failed;
                ])
              rows))
       csv_dir)

let overall_series sweep =
  List.map
    (fun (x, rows) ->
      (x, List.map (fun (r : E.response_row) -> (r.E.protocol, r.E.overall_ms)) rows))
    sweep

(* Every figure id with its printer: the one list [dqr fig] accepts. *)
let figures =
  [
    ( "6a",
      fun ~pool ~seed ~ops ~csv ->
        let rows = E.fig6a ~pool ~seed ~ops () in
        Table.print (Render.response_rows ~title:"fig6a: 5% writes" rows);
        csv_rows csv ~name:"fig6a" rows );
    ( "6b",
      fun ~pool ~seed ~ops ~csv ->
        let sweep = E.fig6b ~pool ~seed ~ops () in
        Table.print (Render.sweep ~title:"fig6b:" ~x_label:"write ratio" ~x_of:f2 sweep);
        csv_series csv ~name:"fig6b" ~x_label:"write_ratio" ~x_of:f2 (overall_series sweep) );
    ( "7a",
      fun ~pool ~seed ~ops ~csv ->
        let rows = E.fig7a ~pool ~seed ~ops () in
        Table.print (Render.response_rows ~title:"fig7a: 5% writes, 90% locality" rows);
        csv_rows csv ~name:"fig7a" rows );
    ( "7b",
      fun ~pool ~seed ~ops ~csv ->
        let sweep = E.fig7b ~pool ~seed ~ops () in
        Table.print (Render.sweep ~title:"fig7b:" ~x_label:"locality" ~x_of:f2 sweep);
        csv_series csv ~name:"fig7b" ~x_label:"locality" ~x_of:f2 (overall_series sweep) );
    ( "8a",
      fun ~pool:_ ~seed:_ ~ops:_ ~csv ->
        let sweep = E.fig8a () in
        Table.print
          (Render.series ~title:"fig8a: unavailability," ~x_label:"write ratio" ~x_of:f2
             ~fmt:Render.scientific sweep);
        csv_series csv ~name:"fig8a" ~x_label:"write_ratio" ~x_of:f2 sweep );
    ( "8b",
      fun ~pool:_ ~seed:_ ~ops:_ ~csv ->
        let sweep = E.fig8b () in
        Table.print
          (Render.series ~title:"fig8b: unavailability," ~x_label:"replicas"
             ~x_of:string_of_int ~fmt:Render.scientific sweep);
        csv_series csv ~name:"fig8b" ~x_label:"replicas" ~x_of:string_of_int sweep );
    ( "8m",
      (* simulation cross-check of figure 8, next to the model at the
         same p on the nine-server topology *)
      fun ~pool ~seed ~ops ~csv:_ ->
        let model =
          match E.fig8a ~p:0.1 ~n:9 ~write_ratios:[ 0.25 ] () with
          | [ (_, series) ] -> series
          | _ -> []
        in
        let t =
          Table.create
            ~header:[ "protocol"; "measured unavailability (p=0.1)"; "model unavail (p=0.1)" ]
        in
        List.iter
          (fun (name, u) ->
            Table.add_row t
              [
                name;
                Render.scientific u;
                (match List.assoc_opt name model with
                | Some v -> Render.scientific v
                | None -> "-");
              ])
          (E.fig8_measured ~pool ~seed ~ops ());
        Table.print t );
    ( "9a",
      fun ~pool ~seed ~ops ~csv ->
        let sweep = E.fig9a () in
        csv_series csv ~name:"fig9a" ~x_label:"write_ratio" ~x_of:f2 sweep;
        Table.print
          (Render.series ~title:"fig9a: msgs/request (model)," ~x_label:"write ratio"
             ~x_of:f2 sweep);
        let measured = E.fig9a_measured ~pool ~seed ~ops () in
        Table.print
          (Render.series ~title:"fig9a: msgs/request (measured dqvl)," ~x_label:"write ratio"
             ~x_of:f2
             (List.map (fun (w, v) -> (w, [ ("dqvl", v) ])) measured)) );
    ( "9b",
      fun ~pool:_ ~seed:_ ~ops:_ ~csv ->
        let sweep = E.fig9b () in
        Table.print
          (Render.series ~title:"fig9b: msgs/request," ~x_label:"OQS size"
             ~x_of:string_of_int sweep);
        csv_series csv ~name:"fig9b" ~x_label:"oqs_size" ~x_of:string_of_int sweep );
  ]

let fig_cmd =
  let print =
    Arg.(
      required
      & pos 0 (some (enum figures)) None
      & info [] ~docv:"FIGURE" ~doc:("The figure, " ^ Arg.doc_alts_enum figures ^ "."))
  in
  let csv_dir =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"DIR" ~doc:"Also write the data as DIR/<figure>.csv.")
  in
  (* The simulation commands fan their runs across one domain pool,
     sized by DQ_JOBS (else the machine's core count); the output is the
     same for every size. *)
  let run print seed ops csv = Pool.with_pool (fun pool -> print ~pool ~seed ~ops ~csv) in
  Cmd.v (Cmd.info "fig" ~doc:"Regenerate one of the paper's figures")
    Term.(const run $ print $ seed_arg $ ops_arg 200 $ csv_dir)

(* --- ablation ------------------------------------------------------------ *)

(* Every ablation id with its printer: the one list [dqr ablation]
   accepts. *)
let ablations =
  let relabel label rows = List.map (fun (x, r) -> { r with E.protocol = label x }) rows in
  [
    ( "leases",
      fun ~pool ~seed ~ops ->
        Table.print
          (Render.response_rows ~title:"ablation: volume leases"
             (E.ablation_leases ~pool ~seed ~ops ())) );
    ( "lease-len",
      fun ~pool ~seed ~ops ->
        Table.print
          (Render.response_rows ~title:"ablation: lease length"
             (relabel (Printf.sprintf "dqvl L=%.0fms") (E.ablation_lease_len ~pool ~seed ~ops ())))
    );
    ( "bursts",
      fun ~pool ~seed ~ops ->
        Table.print
          (Render.response_rows ~title:"ablation: burst length (w=0.5)"
             (relabel (Printf.sprintf "dqvl burst=%.0f") (E.ablation_bursts ~pool ~seed ~ops ())))
    );
    ( "orq",
      fun ~pool ~seed ~ops ->
        Table.print
          (Render.response_rows ~title:"ablation: OQS read quorum size"
             (List.map snd (E.ablation_orq ~pool ~seed ~ops ()))) );
    ( "grid",
      fun ~pool:_ ~seed:_ ~ops:_ ->
        Table.print
          (Render.series ~title:"ablation: grid vs majority unavailability," ~x_label:"replicas"
             ~x_of:string_of_int ~fmt:Render.scientific (E.ablation_grid ())) );
    ( "atomic",
      fun ~pool ~seed ~ops ->
        Table.print
          (Render.response_rows ~title:"ablation: atomic semantics"
             (E.ablation_atomic ~pool ~seed ~ops ())) );
    ( "object-lease",
      fun ~pool ~seed ~ops ->
        let t = Table.create ~header:[ "config"; "msgs/request"; "mean write ms" ] in
        List.iter
          (fun (name, mpr, write_ms) ->
            Table.add_row t [ name; Printf.sprintf "%.1f" mpr; Printf.sprintf "%.1f" write_ms ])
          (E.ablation_object_lease ~pool ~seed ~ops ());
        Table.print t );
    ( "staleness",
      fun ~pool ~seed ~ops ->
        let t = Table.create ~header:[ "protocol"; "stale"; "mean behind ms"; "max behind ms" ] in
        List.iter
          (fun (r : E.staleness_row) ->
            Table.add_row t
              [
                r.E.s_protocol;
                Printf.sprintf "%.1f%%" (100. *. r.E.s_stale_fraction);
                Printf.sprintf "%.0f" r.E.s_mean_behind_ms;
                Printf.sprintf "%.0f" r.E.s_max_behind_ms;
              ])
          (E.ablation_staleness ~pool ~seed ~ops ());
        Table.print t );
    ( "batch-renewals",
      fun ~pool ~seed ~ops:_ ->
        let t = Table.create ~header:[ "policy"; "renewal requests" ] in
        List.iter
          (fun (name, n) -> Table.add_row t [ name; string_of_int n ])
          (E.ablation_batch_renewals ~pool ~seed ());
        Table.print t );
  ]

let ablation_cmd =
  let print =
    Arg.(
      required
      & pos 0 (some (enum ablations)) None
      & info [] ~docv:"ABLATION" ~doc:("The study, " ^ Arg.doc_alts_enum ablations ^ "."))
  in
  let run print seed ops = Pool.with_pool (fun pool -> print ~pool ~seed ~ops) in
  Cmd.v (Cmd.info "ablation" ~doc:"Run one of the ablation studies")
    Term.(const run $ print $ seed_arg $ ops_arg 120)

(* --- run ----------------------------------------------------------------- *)

let write_text_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let run_custom protocol seed ops servers clients write_ratio locality objects verbose
    trace_file metrics_file =
  match Registry.find protocol with
  | None ->
    Printf.eprintf "unknown protocol %S (%s)\n" protocol
      (String.concat ", " (Registry.known_names ()))
  | Some builder ->
    let engine = Dq_sim.Engine.create ~seed () in
    if verbose then Dq_sim.Sim_log.attach engine;
    let bus = Dq_sim.Engine.telemetry engine in
    let trace =
      Option.map
        (fun _ ->
          let t = Dq_telemetry.Trace.create () in
          Dq_telemetry.Trace.set_process_name t ~pid:0
            (Printf.sprintf "dqr run %s seed=%Ld" protocol seed);
          Dq_telemetry.Bus.subscribe bus (Dq_telemetry.Trace.sink t);
          t)
        trace_file
    in
    let metrics =
      Option.map
        (fun _ ->
          let m = Dq_telemetry.Metrics.create () in
          Dq_telemetry.Bus.subscribe bus (Dq_telemetry.Metrics.sink m);
          m)
        metrics_file
    in
    let topology = Dq_net.Topology.make ~n_servers:servers ~n_clients:clients () in
    let instance = builder.Registry.build engine topology () in
    let spec =
      {
        Spec.default with
        Spec.write_ratio;
        locality;
        sharing =
          (if objects = 0 then Spec.Private_object else Spec.Shared_uniform { objects });
      }
    in
    let config = { (Driver.default_config spec) with Driver.ops_per_client = ops } in
    let result = Driver.run engine topology instance.Registry.api config in
    let report = Checker.check result.Driver.history in
    Printf.printf "protocol            %s\n" result.Driver.protocol;
    Printf.printf "issued/completed    %d/%d (%d failed)\n" result.Driver.issued
      result.Driver.completed result.Driver.failed;
    Format.printf "read latency (ms)   %a@." Dq_util.Stats.pp_summary result.Driver.read_latency;
    Format.printf "write latency (ms)  %a@." Dq_util.Stats.pp_summary result.Driver.write_latency;
    Printf.printf "messages/request    %.2f\n" result.Driver.messages_per_request;
    Printf.printf "bytes/request       %.0f\n" result.Driver.bytes_per_request;
    Printf.printf "throughput          %.1f ops/s over %.1f s\n" result.Driver.throughput_per_s
      (result.Driver.elapsed_ms /. 1000.);
    Format.printf "consistency         %a@." Checker.pp_report report;
    let samples = Dq_util.Stats.to_list result.Driver.all_latency in
    if samples <> [] then begin
      Printf.printf "\nlatency distribution (ms):\n";
      print_string
        (Dq_util.Histogram.render
           (Dq_util.Histogram.of_samples ~buckets:[ 20.; 100.; 200.; 400.; 800. ] samples))
    end;
    Option.iter
      (fun path ->
        let t = Option.get trace in
        Dq_telemetry.Trace.write_file t path;
        Printf.printf "(wrote %s: %d trace events)\n" path (Dq_telemetry.Trace.count t))
      trace_file;
    Option.iter
      (fun path ->
        write_text_file path (Dq_telemetry.Metrics.to_json (Option.get metrics));
        Printf.printf "(wrote %s)\n" path)
      metrics_file

let run_cmd =
  let protocol =
    Arg.(value & opt string "dqvl" & info [ "protocol"; "p" ] ~docv:"PROTO" ~doc:"Protocol to run.")
  in
  let servers = Arg.(value & opt int 9 & info [ "servers" ] ~docv:"N" ~doc:"Edge servers.") in
  let clients = Arg.(value & opt int 3 & info [ "clients" ] ~docv:"N" ~doc:"Application clients.") in
  let write_ratio =
    Arg.(value & opt float 0.05 & info [ "write-ratio"; "w" ] ~docv:"W" ~doc:"Write ratio.")
  in
  let locality =
    Arg.(value & opt float 1.0 & info [ "locality"; "l" ] ~docv:"L" ~doc:"Access locality.")
  in
  let objects =
    Arg.(
      value & opt int 0
      & info [ "objects" ] ~docv:"K" ~doc:"Shared objects (0 = one private object per client).")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Trace protocol events (virtual-time log).")
  in
  let trace_file =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace_event JSON timeline of the run to $(docv) (open it in \
             ui.perfetto.dev or chrome://tracing).")
  in
  let metrics_file =
    Arg.(
      value & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write a JSON metrics snapshot (event counters, per-label message tables, \
             latency histograms) to $(docv).")
  in
  Cmd.v (Cmd.info "run" ~doc:"Run a custom workload")
    Term.(
      const run_custom $ protocol $ seed_arg $ ops_arg 200 $ servers $ clients $ write_ratio
      $ locality $ objects $ verbose $ trace_file $ metrics_file)

(* --- bench ---------------------------------------------------------------- *)

module Scenario = Dq_bench.Scenario
module Results = Dq_bench.Results

let bench_list () =
  let t = Table.create ~header:[ "scenario"; "v"; "protocols"; "description" ] in
  List.iter
    (fun (s : Scenario.t) ->
      Table.add_row t
        [
          s.Scenario.name;
          string_of_int s.Scenario.version;
          String.concat "," s.Scenario.protocols;
          s.Scenario.description;
        ])
    Scenario.all;
  Table.print t

let print_outcomes outcomes =
  let t =
    Table.create
      ~header:
        [
          "run"; "done"; "fail"; "read p50"; "write p50"; "msgs/req"; "stale";
          "mean age"; "avg AoI"; "wall s";
        ]
  in
  List.iter
    (fun (o : Scenario.outcome) ->
      let r = o.Scenario.result in
      let aoi = Dq_telemetry.Aoi.summary o.Scenario.aoi in
      Table.add_row t
        [
          Printf.sprintf "%s w=%.2f wan=%.2g" o.Scenario.protocol o.Scenario.write_ratio
            o.Scenario.wan_scale;
          string_of_int r.Driver.completed;
          string_of_int r.Driver.failed;
          Printf.sprintf "%.1f" (Dq_util.Stats.percentile r.Driver.read_latency 50.);
          Printf.sprintf "%.1f" (Dq_util.Stats.percentile r.Driver.write_latency 50.);
          Printf.sprintf "%.1f" r.Driver.messages_per_request;
          Printf.sprintf "%.1f%%" (100. *. aoi.Dq_telemetry.Aoi.stale_fraction);
          Printf.sprintf "%.1f" aoi.Dq_telemetry.Aoi.mean_read_age_ms;
          Printf.sprintf "%.1f" aoi.Dq_telemetry.Aoi.time_avg_age_ms;
          (match o.Scenario.wall_s with Some s -> Printf.sprintf "%.2f" s | None -> "-");
        ])
    outcomes;
  Table.print t

let find_scenario name =
  match Scenario.find name with
  | Some s -> s
  | None ->
    Printf.eprintf "unknown scenario %S (%s)\n" name
      (String.concat ", " (List.map (fun (s : Scenario.t) -> s.Scenario.name) Scenario.all));
    exit 2

let bench_run name smoke seed out wan_scale write_ratio =
  let scenario = find_scenario name in
  let now_s = Unix.gettimeofday in
  let outcomes =
    List.map
      (fun protocol ->
        Scenario.run_protocol ~now_s ~wan_scale ?write_ratio ~smoke ~seed scenario ~protocol)
      scenario.Scenario.protocols
  in
  print_outcomes outcomes;
  Option.iter
    (fun path ->
      Results.write_file path (Results.render ~smoke ~seed scenario outcomes);
      Printf.printf "wrote %s\n" path)
    out

let bench_sweep name smoke seed out wan_scales write_ratios =
  let scenario = find_scenario name in
  let now_s = Unix.gettimeofday in
  let outcomes = Scenario.sweep ~now_s ~smoke ~seed ~wan_scales ~write_ratios scenario in
  print_outcomes outcomes;
  Option.iter
    (fun path ->
      Results.write_file path
        (Results.render ~sweep_axes:(wan_scales, write_ratios) ~smoke ~seed scenario outcomes);
      Printf.printf "wrote %s\n" path)
    out

let scenario_pos =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SCENARIO" ~doc:"Scenario name (see $(b,bench list)).")

let smoke_arg =
  Arg.(value & flag & info [ "smoke" ] ~doc:"Small op counts (CI-sized run).")

let bench_out =
  Arg.(
    value & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Write schema-4 results JSON to $(docv).")

let bench_cmd =
  let list_cmd =
    Cmd.v (Cmd.info "list" ~doc:"List registered scenarios") Term.(const bench_list $ const ())
  in
  let run_cmd =
    let wan_scale =
      Arg.(
        value & opt float 1.0
        & info [ "wan-scale" ] ~docv:"X" ~doc:"Extra multiplier on WAN delays.")
    in
    let write_ratio =
      Arg.(
        value & opt (some float) None
        & info [ "write-ratio"; "w" ] ~docv:"W" ~doc:"Override the scenario's write ratio.")
    in
    Cmd.v (Cmd.info "run" ~doc:"Run one scenario across its protocols")
      Term.(
        const bench_run $ scenario_pos $ smoke_arg $ seed_arg $ bench_out $ wan_scale $ write_ratio)
  in
  let sweep_cmd =
    let wan_scales =
      Arg.(
        value & opt (list float) [ 1.0; 2.0 ]
        & info [ "wan-scales" ] ~docv:"X,Y" ~doc:"WAN-delay multipliers to sweep.")
    in
    let write_ratios =
      Arg.(
        value & opt (list float) [ 0.05; 0.5 ]
        & info [ "write-ratios" ] ~docv:"W,V" ~doc:"Write ratios to sweep.")
    in
    Cmd.v (Cmd.info "sweep" ~doc:"Sweep a scenario over WAN-delay and write-ratio axes")
      Term.(
        const bench_sweep $ scenario_pos $ smoke_arg $ seed_arg $ bench_out $ wan_scales
        $ write_ratios)
  in
  Cmd.group
    (Cmd.info "bench" ~doc:"Perf-campaign scenarios: run and sweep")
    [ list_cmd; run_cmd; sweep_cmd ]

(* --- avail / overhead ----------------------------------------------------- *)

let avail n p w =
  let protocols =
    [
      Dq_analysis.Avail_model.dqvl_default ~n;
      Dq_analysis.Avail_model.Majority { n };
      Dq_analysis.Avail_model.Rowa { n };
      Dq_analysis.Avail_model.Rowa_async_stale { n };
      Dq_analysis.Avail_model.Rowa_async_no_stale;
      Dq_analysis.Avail_model.Primary_backup;
    ]
  in
  let t = Table.create ~header:[ "protocol"; "read unavail"; "write unavail"; "overall" ] in
  List.iter
    (fun proto ->
      Table.add_row t
        [
          Dq_analysis.Avail_model.name proto;
          Render.scientific (Dq_analysis.Avail_model.read_unavailability proto ~p);
          Render.scientific (Dq_analysis.Avail_model.write_unavailability proto ~p);
          Render.scientific (Dq_analysis.Avail_model.unavailability proto ~p ~w);
        ])
    protocols;
  Table.print t

let avail_cmd =
  let n = Arg.(value & opt int 15 & info [ "n" ] ~docv:"N" ~doc:"Replica count.") in
  let p = Arg.(value & opt float 0.01 & info [ "p" ] ~docv:"P" ~doc:"Per-node failure probability.") in
  let w = Arg.(value & opt float 0.25 & info [ "w" ] ~docv:"W" ~doc:"Write ratio.") in
  Cmd.v (Cmd.info "avail" ~doc:"Analytical availability model") Term.(const avail $ n $ p $ w)

let overhead n_iqs n_oqs w =
  let sizes = Dq_analysis.Overhead_model.dqvl_sizes ~n_iqs ~n_oqs in
  let t = Table.create ~header:[ "scenario"; "messages" ] in
  let add label v = Table.add_row t [ label; Printf.sprintf "%.1f" v ] in
  add "read hit" (Dq_analysis.Overhead_model.read_hit sizes);
  add "read miss" (Dq_analysis.Overhead_model.read_miss sizes);
  add "write suppress" (Dq_analysis.Overhead_model.write_suppress sizes);
  add "write through" (Dq_analysis.Overhead_model.write_through sizes);
  add (Printf.sprintf "dqvl expected (w=%.2f)" w) (Dq_analysis.Overhead_model.dqvl sizes ~w);
  add "majority expected" (Dq_analysis.Overhead_model.majority ~n:n_oqs ~w);
  Table.print t

let overhead_cmd =
  let n_iqs = Arg.(value & opt int 9 & info [ "iqs" ] ~docv:"N" ~doc:"IQS size.") in
  let n_oqs = Arg.(value & opt int 9 & info [ "oqs" ] ~docv:"N" ~doc:"OQS size.") in
  let w = Arg.(value & opt float 0.25 & info [ "w" ] ~docv:"W" ~doc:"Write ratio.") in
  Cmd.v (Cmd.info "overhead" ~doc:"Analytical communication-overhead model")
    Term.(const overhead $ n_iqs $ n_oqs $ w)

(* --- quorum-opt ------------------------------------------------------------ *)

module Qs = Dq_quorum.Quorum_system
module Strategy = Dq_quorum.Strategy
module Optimizer = Dq_quorum.Optimizer

(* Expand a per-node parameter: one value is replicated to all nodes, a
   comma list must name every node. *)
let per_node ~what ~n = function
  | [ v ] -> Array.make n v
  | vs when List.length vs = n -> Array.of_list vs
  | vs ->
    Printf.eprintf "quorum-opt: --%s needs 1 or %d values (got %d)\n" what n
      (List.length vs);
    exit 2

let votes_label votes =
  Printf.sprintf "[%s]" (String.concat "," (List.map (fun (_, v) -> string_of_int v) votes))

let print_frontier (result : Optimizer.result) =
  Printf.printf "searched %d quorum systems%s; frontier has %d point(s)\n"
    result.Optimizer.candidates
    (if result.Optimizer.truncated then " (truncated)" else "")
    (List.length result.Optimizer.frontier);
  let t =
    Table.create
      ~header:
        [ "votes"; "r"; "w"; "kind"; "load"; "capacity"; "latency"; "ft";
          "read unavail"; "write unavail" ]
  in
  List.iter
    (fun (pt : Optimizer.point) ->
      let m = pt.Optimizer.metrics in
      Table.add_row t
        [
          votes_label pt.Optimizer.votes;
          string_of_int pt.Optimizer.read_votes;
          string_of_int pt.Optimizer.write_votes;
          pt.Optimizer.kind;
          Printf.sprintf "%.4f" m.Optimizer.load;
          Printf.sprintf "%.2f" m.Optimizer.capacity;
          Printf.sprintf "%.1f" m.Optimizer.latency_ms;
          string_of_int m.Optimizer.fault_tolerance;
          Render.scientific m.Optimizer.read_unavailability;
          Render.scientific m.Optimizer.write_unavailability;
        ])
    result.Optimizer.frontier;
  Table.print t

(* Re-base the winning system and strategies from optimizer node ids
   (0..n-1) onto the scenario topology's server ids, as a "dqvl-opt"
   builder: optimized weighted IQS (with its explicit read/write
   strategies) and the paper's read-one/write-all OQS. *)
let applied_builder (winner : Optimizer.point) ~n =
  let make_config servers =
    if List.length servers < n then
      invalid_arg
        (Printf.sprintf
           "quorum-opt --apply: scenario has %d servers but the topology was \
            optimized for %d nodes"
           (List.length servers) n);
    let mapped = Array.of_list (List.filteri (fun i _ -> i < n) servers) in
    let iqs =
      Qs.weighted ~name:"iqs-opt"
        ~members:(List.map (fun (id, v) -> (mapped.(id), v)) winner.Optimizer.votes)
        ~read:winner.Optimizer.read_votes ~write:winner.Optimizer.write_votes
    in
    let remap strategy mode =
      match Strategy.distribution strategy with
      | None -> None
      | Some dist ->
        Some
          (Strategy.explicit iqs mode
             (List.map (fun (q, p) -> (List.map (fun id -> mapped.(id)) q, p)) dist))
    in
    let config =
      {
        (Dq_core.Config.dqvl ~servers ()) with
        Dq_core.Config.iqs;
        oqs = Qs.rowa servers;
        iqs_read_strategy = remap winner.Optimizer.read_strategy Qs.Read;
        iqs_write_strategy = remap winner.Optimizer.write_strategy Qs.Write;
      }
    in
    Dq_core.Config.validate config;
    config
  in
  Registry.dqvl_custom ~name:"dqvl-opt" make_config

let quorum_opt n ps latencies read_fraction max_votes out apply scenario_name seed =
  let fail_prob = per_node ~what:"p" ~n ps in
  let latency = per_node ~what:"latency" ~n latencies in
  let nodes =
    List.init n (fun id ->
        { Optimizer.id; fail_prob = fail_prob.(id); latency_ms = latency.(id) })
  in
  let result = Optimizer.search ~read_fraction ~max_votes ~nodes () in
  print_frontier result;
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (Optimizer.to_json result);
      close_out oc;
      Printf.printf "wrote %s\n" path)
    out;
  if apply then begin
    match Optimizer.winner result with
    | None ->
      Printf.eprintf "quorum-opt: empty frontier, nothing to apply\n";
      exit 1
    | Some winner ->
      Printf.printf "applying %s r=%d w=%d (%s) to scenario %s (smoke)\n"
        (votes_label winner.Optimizer.votes)
        winner.Optimizer.read_votes winner.Optimizer.write_votes winner.Optimizer.kind
        scenario_name;
      let builder = applied_builder winner ~n in
      let scenario = find_scenario scenario_name in
      let now_s = Unix.gettimeofday in
      let outcome =
        Scenario.run_protocol ~now_s ~smoke:true ~seed ~builder scenario
          ~protocol:builder.Registry.name
      in
      print_outcomes [ outcome ]
  end

let quorum_opt_cmd =
  let n = Arg.(value & opt int 5 & info [ "n" ] ~docv:"N" ~doc:"Node count.") in
  let p =
    Arg.(
      value & opt (list float) [ 0.01 ]
      & info [ "p"; "fail-probs" ] ~docv:"P,..."
          ~doc:"Per-node failure probability: one value for all nodes, or one per node.")
  in
  let latency =
    Arg.(
      value & opt (list float) [ 10. ]
      & info [ "latency" ] ~docv:"MS,..."
          ~doc:"Per-node latency in ms: one value for all nodes, or one per node.")
  in
  let read_fraction =
    Arg.(
      value & opt float 0.9
      & info [ "read-fraction" ] ~docv:"F" ~doc:"Fraction of operations that are reads.")
  in
  let max_votes =
    Arg.(
      value & opt int 3
      & info [ "max-votes" ] ~docv:"V" ~doc:"Largest per-node vote weight searched.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the frontier JSON (schema quorum-opt-1) to $(docv).")
  in
  let apply =
    Arg.(
      value & flag
      & info [ "apply" ]
          ~doc:
            "Run the winning system as the DQVL input quorum system in a smoke bench \
             scenario (protocol name dqvl-opt).")
  in
  let scenario =
    Arg.(
      value & opt string "baseline"
      & info [ "scenario" ] ~docv:"SCENARIO" ~doc:"Scenario used by $(b,--apply).")
  in
  Cmd.v
    (Cmd.info "quorum-opt"
       ~doc:
         "Search weighted quorum systems and read/write strategies for a \
          load/latency/fault-tolerance Pareto frontier")
    Term.(
      const quorum_opt $ n $ p $ latency $ read_fraction $ max_votes $ out $ apply
      $ scenario $ seed_arg)

(* --- load / bandwidth ------------------------------------------------------ *)

let load_study seed ops service_ms =
  Table.print
    (Render.series ~title:"load study:" ~x_label:"req/s per client"
       ~x_of:(Printf.sprintf "%.0f")
       ~fmt:(Printf.sprintf "%.1f")
       (Pool.with_pool (fun pool -> E.saturation ~pool ~seed ~ops ~service_ms ())))

let load_cmd =
  let service_ms =
    Arg.(value & opt float 1.0 & info [ "service-ms" ] ~docv:"MS" ~doc:"Per-message service time.")
  in
  Cmd.v
    (Cmd.info "load" ~doc:"Open-loop load study with a per-message service time")
    Term.(const load_study $ seed_arg $ ops_arg 300 $ service_ms)

let bandwidth seed ops write_ratio =
  let t = Table.create ~header:[ "protocol"; "msgs/request"; "bytes/request" ] in
  List.iter
    (fun (name, mpr, bpr) ->
      Table.add_row t [ name; Printf.sprintf "%.1f" mpr; Printf.sprintf "%.0f" bpr ])
    (Pool.with_pool (fun pool -> E.bandwidth ~pool ~seed ~ops ~write_ratio ()));
  Table.print t

let bandwidth_cmd =
  let w = Arg.(value & opt float 0.25 & info [ "w" ] ~docv:"W" ~doc:"Write ratio.") in
  Cmd.v
    (Cmd.info "bandwidth" ~doc:"Measured messages and bytes per request")
    Term.(const bandwidth $ seed_arg $ ops_arg 200 $ w)

let () =
  let doc = "dual-quorum replication for edge services - experiments" in
  let info = Cmd.info "dqr" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            fig_cmd; ablation_cmd; run_cmd; bench_cmd; avail_cmd; overhead_cmd;
            quorum_opt_cmd; load_cmd; bandwidth_cmd;
          ]))
