module Engine = Dq_sim.Engine
module Topology = Dq_net.Topology
module Net = Dq_net.Net
module Spec = Dq_workload.Spec
module Driver = Dq_harness.Driver
module Registry = Dq_harness.Registry
module Regular_checker = Dq_harness.Regular_checker
module Staleness = Dq_harness.Staleness
module Stats = Dq_util.Stats
module Bus = Dq_telemetry.Bus
module Metrics = Dq_telemetry.Metrics
module Aoi = Dq_telemetry.Aoi

type amnesia = { node : int; crash_ms : float; recover_ms : float }

type t = {
  name : string;
  why : string;
  protocols : string list;
  spec : Spec.t;
  ops_per_client : int;
  server_loss : float;
  amnesia : amnesia option;
  product_sinks : bool;
  topology : unit -> Topology.t;
}

(* The paper's topology: 9 edge servers, 9 clients, 8/86/80 ms. *)
let paper_topology () = Topology.make ~n_servers:9 ~n_clients:9 ()

(* The same delays, but no client is attached to server 1: client 10
   shares server 0 with client 9. A closed-loop client never
   retransmits, so an operation in flight at a front end that crashes
   would fail; with no client on the crashed server, only the quorums'
   masking of its loss is on trial. *)
let failover_topology () =
  Topology.make ~n_servers:9 ~n_clients:9 ~closest:(fun c -> if c = 10 then 0 else c - 9) ()

(* Op counts are fixed per client so that each workload's DQVL run has
   more than 1000 writes after warm-up: at least ten samples beyond
   the write p99. Beyond that they are kept small, so that a run holds
   more than ten passes for [ops_per_s] to pick each phase's fastest
   from. *)
let edge_read =
  {
    name = "edge-read";
    why =
      "private objects, 5% writes, 90% locality, all five paper protocols: DQVL reads hit \
       the local OQS, so Engine, Net and the read-hit path do the work and the checker little";
    protocols = [ "dqvl-paper"; "primary-backup"; "majority"; "rowa"; "rowa-async" ];
    spec = { Spec.default with Spec.write_ratio = 0.05; locality = 0.9 };
    ops_per_client = 3000;
    server_loss = 0.;
    amnesia = None;
    product_sinks = false;
    topology = paper_topology;
  }

let hot_key =
  {
    name = "hot-key";
    why =
      "all clients on one shared object, 30% writes, DQVL and majority: IQS invalidations, \
       QRPC write rounds and OQS misses, with a checker cost that grows with writes per key";
    protocols = [ "dqvl-paper"; "majority" ];
    spec =
      {
        Spec.default with
        Spec.write_ratio = 0.3;
        sharing = Spec.Shared_uniform { objects = 1 };
      };
    ops_per_client = 1000;
    server_loss = 0.;
    amnesia = None;
    product_sinks = false;
    topology = paper_topology;
  }

(* Loss is injected only on links between servers. The closed-loop
   client never retransmits, so a lost client request would fail its
   operation; between servers, QRPC and the retry loops must mask it. *)
let lossy_failover =
  {
    name = "lossy-failover";
    why =
      "16 shared objects, 20% writes, 2% loss between servers, amnesia crash of replica 1 from \
       20 s to 40 s, Metrics and Aoi sinks on: retransmission, state transfer and telemetry";
    protocols = [ "dqvl-paper"; "primary-backup"; "majority" ];
    spec =
      {
        Spec.default with
        Spec.write_ratio = 0.2;
        sharing = Spec.Shared_uniform { objects = 16 };
      };
    ops_per_client = 1000;
    server_loss = 0.02;
    amnesia = Some { node = 1; crash_ms = 20_000.; recover_ms = 40_000. };
    product_sinks = true;
    topology = failover_topology;
  }

let all = [ edge_read; hot_key; lossy_failover ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

type prepared = {
  protocol : string;
  engine : Engine.t;
  instance : Registry.instance;
  product : (Metrics.t * Aoi.t) option;
  counts : Counts.t option;
}

type setup = { topology : Topology.t; prepared : prepared list; setup_s : float; build_s : float }

let isolate_clients topology (control : Net.control) =
  List.iter
    (fun client ->
      List.iter
        (fun server ->
          control.Net.c_set_link_faults ~src:client ~dst:server (Some Net.no_faults);
          control.Net.c_set_link_faults ~src:server ~dst:client (Some Net.no_faults))
        (Topology.servers topology))
    (Topology.clients topology)

let prepare ?spans ~traced ~record (w : t) ~seed topology protocol =
  let engine = Engine.create ~seed () in
  let builder =
    match Registry.find protocol with
    | Some b -> b
    | None -> invalid_arg (Printf.sprintf "unknown protocol %S" protocol)
  in
  let faults =
    if w.server_loss > 0. then Some { Net.no_faults with Net.loss = w.server_loss } else None
  in
  let instance, build_s, _ =
    Wall.time (fun () ->
        Spans.within spans "registry.build" (fun () ->
            builder.Registry.build engine topology ?faults ()))
  in
  let control = instance.Registry.control in
  if Option.is_some faults then isolate_clients topology control;
  Option.iter
    (fun a ->
      ignore
        (Engine.schedule_at engine ~time:a.crash_ms (fun () -> control.Net.c_crash_amnesia a.node));
      ignore (Engine.schedule_at engine ~time:a.recover_ms (fun () -> control.Net.c_recover a.node)))
    w.amnesia;
  let bus = Engine.telemetry engine in
  let product =
    if w.product_sinks then begin
      let metrics = Metrics.create () in
      let aoi = Aoi.create () in
      Bus.subscribe bus (Metrics.sink metrics);
      Bus.subscribe bus (Aoi.sink aoi);
      Some (metrics, aoi)
    end
    else None
  in
  let counts =
    if traced then begin
      let counts = Counts.create () in
      Bus.subscribe bus (Counts.sink counts);
      Some counts
    end
    else None
  in
  Option.iter (Bus.subscribe bus) (record protocol);
  ({ protocol; engine; instance; product; counts }, build_s)

let setup ?spans ?(record = fun _ -> None) ~traced (w : t) ~seed =
  let (topology, prepared), setup_s, _ =
    Wall.time (fun () ->
        Spans.within spans "setup" (fun () ->
            let topology = w.topology () in
            (topology, List.map (prepare ?spans ~traced ~record w ~seed topology) w.protocols)))
  in
  {
    topology;
    prepared = List.map fst prepared;
    setup_s;
    build_s = List.fold_left (fun acc (_, s) -> acc +. s) 0. prepared;
  }

type run = {
  protocol : string;
  result : Driver.result;
  writes : int;
  events : int;
  violations : int;
  reads_checked : int;
  stale_reads : int;
  max_versions_behind : int;
  aoi : Aoi.summary option;
  counts : Counts.t option;
  simulate_s : float;
  simulate_words : float;
  check_s : float;
  check_words : float;
  staleness_s : float;
  fingerprint : Digest.t;
}

let is_write (op : Dq_harness.History.op) =
  match op.Dq_harness.History.kind with
  | Dq_harness.History.Write -> true
  | Dq_harness.History.Read -> false

let execute ?spans (w : t) topology (p : prepared) =
  Spans.within spans p.protocol (fun () ->
      let config =
        { (Driver.default_config w.spec) with Driver.ops_per_client = w.ops_per_client }
      in
      let result, simulate_s, simulate_words =
        Wall.time (fun () ->
            Spans.within spans "driver.simulate" (fun () ->
                Driver.run_with_events p.engine topology p.instance.Registry.api config ~events:[]
                  ~on_net_event:(fun _ -> ())))
      in
      let history = result.Driver.history in
      let check, check_s, check_words =
        Wall.time (fun () ->
            Spans.within spans "checker.check" (fun () -> Regular_checker.check history))
      in
      let staleness, staleness_s, _ =
        Wall.time (fun () ->
            Spans.within spans "staleness.measure" (fun () ->
                let report = Staleness.measure history in
                ignore (Staleness.measure_age history : Staleness.age_report);
                report))
      in
      let violations = List.length check.Regular_checker.violations in
      let stale_reads = List.length staleness.Staleness.stale in
      let events = Engine.events_executed p.engine in
      (* Everything computed in virtual time: equal fingerprints mean
         equal histories, latencies, and message and event counts. *)
      let fingerprint =
        Digest.string
          (Marshal.to_string
             ( history,
               Stats.to_list result.Driver.read_latency,
               Stats.to_list result.Driver.write_latency,
               (result.Driver.issued, result.Driver.completed, result.Driver.failed),
               (result.Driver.remote_messages, result.Driver.remote_bytes, events),
               (violations, stale_reads) )
             [])
      in
      {
        protocol = p.protocol;
        (* The history is dropped here, so a pass holds one protocol's
           history at a time. *)
        result = { result with Driver.history = [] };
        writes = List.length (List.filter is_write history);
        events;
        violations;
        reads_checked = staleness.Staleness.checked;
        stale_reads;
        max_versions_behind = staleness.Staleness.max_versions_behind;
        aoi = Option.map (fun (_, aoi) -> Aoi.summary aoi) p.product;
        counts = p.counts;
        simulate_s;
        simulate_words;
        check_s;
        check_words;
        staleness_s;
        fingerprint;
      })

type iteration = { setup : setup; measure_s : float; runs : run list }

(* One pass over the workload: set up every protocol, then run each one
   from its first issued operation to its checker and staleness
   verdicts. Each pass starts from a fully collected heap, so no pass
   pays for collecting the garbage its predecessor left. *)
let iterate ?spans ?record ~traced w ~seed =
  Gc.full_major ();
  let setup = setup ?spans ?record ~traced w ~seed in
  let runs =
    Spans.within spans "measure" (fun () ->
        List.map (execute ?spans w setup.topology) setup.prepared)
  in
  let measure_s =
    List.fold_left (fun acc r -> acc +. r.simulate_s +. r.check_s +. r.staleness_s) 0. runs
  in
  { setup; measure_s; runs }

let completed it = List.fold_left (fun acc r -> acc + r.result.Driver.completed) 0 it.runs

let ops_per_s it = float_of_int (completed it) /. it.measure_s

let fingerprint it = Digest.string (String.concat "" (List.map (fun r -> r.fingerprint) it.runs))
