module Engine = Dq_sim.Engine
module Topology = Dq_net.Topology
module Spec = Dq_workload.Spec
module Driver = Dq_harness.Driver
module Registry = Dq_harness.Registry
module Staleness = Dq_harness.Staleness
module Regular_checker = Dq_harness.Regular_checker
module Bus = Dq_telemetry.Bus
module Metrics = Dq_telemetry.Metrics
module Aoi = Dq_telemetry.Aoi

type t = {
  name : string;
  version : int;
  description : string;
  protocols : string list;
  n_servers : int;
  n_clients : int;
  ops_per_client : int;
  smoke_ops : int;
  spec : Spec.t;
  value_pad : int;
  wan_scale : float;
  timeout_ms : float;
  redirect_to_up : bool;
  faults : Driver.event list;
}

(* The campaign registry. Versions are part of the baseline contract:
   any change to a scenario's shape (topology, workload, op counts,
   faults) must bump [version], so the regenerated smoke baseline
   (`dune runtest; dune promote`) names the reshape rather than only
   moving numbers. *)

let paper_five_names = [ "dqvl-paper"; "primary-backup"; "majority"; "rowa"; "rowa-async" ]

let baseline =
  {
    name = "baseline";
    version = 1;
    description =
      "paper topology, mixed read/write on shared objects; every paper protocol";
    protocols = paper_five_names;
    n_servers = 5;
    n_clients = 3;
    ops_per_client = 200;
    smoke_ops = 40;
    spec =
      {
        Spec.default with
        Spec.write_ratio = 0.1;
        sharing = Spec.Shared_uniform { objects = 4 };
      };
    value_pad = 0;
    wan_scale = 1.;
    timeout_ms = 30_000.;
    redirect_to_up = false;
    faults = [];
  }

let high_throughput =
  {
    name = "high-throughput";
    version = 1;
    description = "open-loop Poisson arrivals at 50 req/s per client; saturation behaviour";
    protocols = [ "dqvl-paper"; "majority" ];
    n_servers = 3;
    n_clients = 6;
    ops_per_client = 300;
    smoke_ops = 50;
    spec =
      {
        Spec.default with
        Spec.write_ratio = 0.2;
        sharing = Spec.Shared_uniform { objects = 8 };
        arrival = Spec.Open { rate_per_s = 50. };
      };
    value_pad = 0;
    wan_scale = 1.;
    timeout_ms = 30_000.;
    redirect_to_up = false;
    faults = [];
  }

let large_objects =
  {
    name = "large-objects";
    version = 1;
    description = "16 KiB values: wire-byte costs dominate; replication fan-out visible";
    protocols = [ "dqvl-paper"; "primary-backup"; "majority" ];
    n_servers = 5;
    n_clients = 3;
    ops_per_client = 150;
    smoke_ops = 30;
    spec = { Spec.default with Spec.write_ratio = 0.25 };
    value_pad = 16_384;
    wan_scale = 1.;
    timeout_ms = 30_000.;
    redirect_to_up = false;
    faults = [];
  }

let latency_focus =
  {
    name = "latency-focus";
    version = 1;
    description = "read-dominated private objects at 90% locality; tail-latency quantiles";
    protocols = paper_five_names;
    n_servers = 5;
    n_clients = 3;
    ops_per_client = 300;
    smoke_ops = 60;
    spec = { Spec.default with Spec.write_ratio = 0.05; locality = 0.9 };
    value_pad = 0;
    wan_scale = 1.;
    timeout_ms = 30_000.;
    redirect_to_up = false;
    faults = [];
  }

let warm_standby =
  {
    name = "warm-standby";
    version = 1;
    description =
      "failover: a server crashes mid-run and recovers; request redirection on";
    protocols = [ "dqvl-paper"; "primary-backup"; "majority" ];
    n_servers = 5;
    n_clients = 3;
    ops_per_client = 200;
    smoke_ops = 40;
    spec =
      {
        Spec.default with
        Spec.write_ratio = 0.1;
        sharing = Spec.Shared_uniform { objects = 4 };
      };
    value_pad = 0;
    wan_scale = 1.;
    timeout_ms = 8_000.;
    redirect_to_up = true;
    faults =
      [
        { Driver.at_ms = 10_000.; action = `Crash 0 };
        { Driver.at_ms = 40_000.; action = `Recover 0 };
      ];
  }

let all = [ baseline; high_throughput; large_objects; latency_focus; warm_standby ]

let find name = List.find_opt (fun s -> String.equal s.name name) all

(* {2 Running} *)

type outcome = {
  protocol : string;
  wan_scale : float;
  write_ratio : float;
  result : Driver.result;
  metrics : Metrics.t;
  aoi : Aoi.t;
  staleness : Staleness.report;
  age : Staleness.age_report;
  violations : int;
  sim_events : int;
  wall_s : float option;
}

(* The online AoI sink and the offline history oracle are two
   implementations of one definition; every bench run cross-checks the
   exactly-countable parts so drift between them fails loudly instead
   of silently skewing a gated metric. (Float accumulations are
   order-sensitive, so means are checked in the test suite with a
   tolerance, not here.) *)
let cross_check ~protocol (aoi : Aoi.summary) (oracle : Staleness.report) =
  if
    aoi.Aoi.reads_checked <> oracle.Staleness.checked
    || aoi.Aoi.stale_reads <> List.length oracle.Staleness.stale
    || aoi.Aoi.max_versions_behind <> oracle.Staleness.max_versions_behind
  then
    failwith
      (Printf.sprintf
         "%s: online AoI sink disagrees with offline staleness oracle \
          (reads %d/%d, stale %d/%d, versions-behind %d/%d)"
         protocol aoi.Aoi.reads_checked oracle.Staleness.checked aoi.Aoi.stale_reads
         (List.length oracle.Staleness.stale)
         aoi.Aoi.max_versions_behind oracle.Staleness.max_versions_behind)

let run_protocol ?now_s ?(wan_scale = 1.) ?write_ratio ~smoke ~seed ?builder (scenario : t)
    ~protocol =
  let builder =
    match builder with
    | Some b -> b
    | None -> (
      match Registry.find protocol with
      | Some b -> b
      | None ->
        invalid_arg
          (Printf.sprintf "Scenario.run: unknown protocol %S (known: %s)" protocol
             (String.concat ", " (Registry.known_names ()))))
  in
  let wan_scale = scenario.wan_scale *. wan_scale in
  let spec =
    match write_ratio with
    | None -> scenario.spec
    | Some write_ratio -> { scenario.spec with Spec.write_ratio }
  in
  let engine = Engine.create ~seed () in
  let bus = Engine.telemetry engine in
  let metrics = Metrics.create () in
  let aoi = Aoi.create () in
  Bus.subscribe bus (Metrics.sink metrics);
  Bus.subscribe bus (Aoi.sink aoi);
  let topology =
    Topology.make ~n_servers:scenario.n_servers ~n_clients:scenario.n_clients
      ~wan_ms:(86. *. wan_scale) ~server_ms:(80. *. wan_scale) ()
  in
  let instance = builder.Registry.build engine topology () in
  let config =
    {
      (Driver.default_config spec) with
      Driver.ops_per_client = (if smoke then scenario.smoke_ops else scenario.ops_per_client);
      timeout_ms = scenario.timeout_ms;
      redirect_to_up = scenario.redirect_to_up;
      value_pad = scenario.value_pad;
    }
  in
  let started = Option.map (fun f -> f ()) now_s in
  let result =
    Driver.run_with_events engine topology instance.Registry.api config
      ~events:scenario.faults
      ~on_net_event:(function
        | `Partition groups -> instance.Registry.partition groups
        | `Heal -> instance.Registry.heal ())
  in
  let wall_s =
    match now_s, started with Some f, Some t0 -> Some (f () -. t0) | _ -> None
  in
  let staleness = Staleness.measure result.Driver.history in
  let age = Staleness.measure_age result.Driver.history in
  cross_check ~protocol (Aoi.summary aoi) staleness;
  {
    protocol;
    wan_scale;
    write_ratio = spec.Spec.write_ratio;
    result;
    metrics;
    aoi;
    staleness;
    age;
    violations =
      List.length (Regular_checker.check result.Driver.history).Regular_checker.violations;
    sim_events = Engine.events_executed engine;
    wall_s;
  }

let run ?now_s ?(smoke = false) ?(seed = 42L) (scenario : t) =
  List.map (fun protocol -> run_protocol ?now_s ~smoke ~seed scenario ~protocol)
    scenario.protocols

let sweep ?now_s ?(smoke = false) ?(seed = 42L) ~wan_scales ~write_ratios (scenario : t) =
  List.concat_map
    (fun wan_scale ->
      List.concat_map
        (fun write_ratio ->
          List.map
            (fun protocol ->
              run_protocol ?now_s ~wan_scale ~write_ratio ~smoke ~seed scenario ~protocol)
            scenario.protocols)
        write_ratios)
    wan_scales
