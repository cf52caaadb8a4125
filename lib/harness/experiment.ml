module Engine = Dq_sim.Engine
module Topology = Dq_net.Topology
module Spec = Dq_workload.Spec
module Stats = Dq_util.Stats
module Qs = Dq_quorum.Quorum_system
module Avail = Dq_analysis.Avail_model
module Overhead = Dq_analysis.Overhead_model
module Pool = Dq_par.Pool

(* --- parallel sweeps --------------------------------------------------- *)

(* Every figure is a sweep of independent (protocol x point x seed) runs,
   each on its own freshly seeded engine, so they fan across the caller's
   domain pool with results identical to the serial order. No pool means
   a serial run. *)
let pmap ?pool f xs =
  match pool with None -> List.map f xs | Some pool -> Pool.map pool f xs

(* Split [xs] into consecutive chunks of [width] — the inverse of
   flattening a (sweep point x builder) product back into per-point rows. *)
let rec chunk_list width = function
  | [] -> []
  | xs ->
    let rec take k acc rest =
      match (k, rest) with
      | 0, _ | _, [] -> (List.rev acc, rest)
      | _, y :: tl -> take (k - 1) (y :: acc) tl
    in
    let chunk, rest = take width [] xs in
    chunk :: chunk_list width rest

type response_row = {
  protocol : string;
  read_ms : float;
  write_ms : float;
  overall_ms : float;
  completed : int;
  failed : int;
  violations : int;
}

let paper_topology ?(n_servers = 9) ?(n_clients = 3) () =
  Topology.make ~n_servers ~n_clients ()

let row_of_result (result : Driver.result) =
  let report = Regular_checker.check result.Driver.history in
  {
    protocol = result.Driver.protocol;
    read_ms = Stats.mean result.Driver.read_latency;
    write_ms = Stats.mean result.Driver.write_latency;
    overall_ms = Stats.mean result.Driver.all_latency;
    completed = result.Driver.completed;
    failed = result.Driver.failed;
    violations = List.length report.Regular_checker.violations;
  }

let run_one ?(seed = 42L) ?(ops = 200) ~topology ~spec (builder : Registry.builder) =
  let engine = Engine.create ~seed () in
  let instance = builder.Registry.build engine topology () in
  let config = { (Driver.default_config spec) with Driver.ops_per_client = ops } in
  let result = Driver.run engine topology instance.Registry.api config in
  row_of_result result

let response_time ?pool ?seed ?ops ?(builders = Registry.paper_five) ~spec () =
  let topology = paper_topology () in
  pmap ?pool (run_one ?seed ?ops ~topology ~spec) builders

(* Sweep [points] x [builders] as one flat batch of runs (maximum
   parallelism), then regroup rows per point. *)
let sweep_runs ?pool ?seed ?ops ?(builders = Registry.paper_five) ~spec_of points =
  let topology = paper_topology () in
  let tasks =
    List.concat_map (fun x -> List.map (fun b -> (x, b)) builders) points
  in
  let rows =
    pmap ?pool (fun (x, b) -> run_one ?seed ?ops ~topology ~spec:(spec_of x) b) tasks
  in
  List.map2 (fun x rs -> (x, rs)) points (chunk_list (List.length builders) rows)

(* --- Figure 6: response time vs write ratio --------------------------- *)

let fig6a ?pool ?seed ?ops () =
  response_time ?pool ?seed ?ops ~spec:{ Spec.default with Spec.write_ratio = 0.05 } ()

let default_write_ratios = [ 0.0; 0.05; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ]

let fig6b ?pool ?seed ?ops ?(write_ratios = default_write_ratios) () =
  sweep_runs ?pool ?seed ?ops
    ~spec_of:(fun w -> { Spec.default with Spec.write_ratio = w })
    write_ratios

(* --- Figure 7: response time vs access locality ----------------------- *)

let fig7a ?pool ?seed ?ops () =
  response_time ?pool ?seed ?ops
    ~spec:{ Spec.default with Spec.write_ratio = 0.05; locality = 0.9 }
    ()

let default_localities = [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ]

let fig7b ?pool ?seed ?ops ?(localities = default_localities) () =
  sweep_runs ?pool ?seed ?ops
    ~spec_of:(fun locality -> { Spec.default with Spec.write_ratio = 0.05; locality })
    localities

(* --- Figure 8: availability (analytical) ------------------------------ *)

let avail_protocols n =
  [
    Avail.dqvl_default ~n;
    Avail.Majority { n };
    Avail.Rowa { n };
    Avail.Rowa_async_stale { n };
    Avail.Rowa_async_no_stale;
    Avail.Primary_backup;
  ]

let fig8a ?(p = 0.01) ?(n = 15) ?(write_ratios = default_write_ratios) () =
  let protocols = avail_protocols n in
  List.map
    (fun w ->
      ( w,
        List.map
          (fun proto -> (Avail.name proto, Avail.unavailability proto ~p ~w))
          protocols ))
    write_ratios

let fig8b ?(p = 0.01) ?(w = 0.25) ?(ns = [ 3; 5; 7; 9; 11; 13; 15; 17; 19; 21 ]) () =
  List.map
    (fun n ->
      ( n,
        List.map
          (fun proto -> (Avail.name proto, Avail.unavailability proto ~p ~w))
          (avail_protocols n) ))
    ns

let fig8_measured ?pool ?(seed = 42L) ?(ops = 150) ?(p = 0.1) ?(write_ratio = 0.25) () =
  let topology = paper_topology () in
  let mttf_ms, mttr_ms = Churn.periods_for ~p ~cycle_ms:20_000. in
  let spec = { Spec.default with Spec.write_ratio } in
  pmap ?pool
    (fun (builder : Registry.builder) ->
      let engine = Engine.create ~seed () in
      let instance = builder.Registry.build engine topology () in
      let churn =
        Churn.install engine
          ~crash:instance.Registry.api.Dq_intf.Replication.crash_server
          ~recover:instance.Registry.api.Dq_intf.Replication.recover_server
          ~servers:(Topology.servers topology) ~mttf_ms ~mttr_ms
      in
      let config =
        {
          (Driver.default_config spec) with
          Driver.ops_per_client = ops;
          timeout_ms = 2_000.;
          redirect_to_up = true;
        }
      in
      let result = Driver.run engine topology instance.Registry.api config in
      Churn.stop churn;
      let unavailability =
        if result.Driver.issued = 0 then 0.
        else float_of_int result.Driver.failed /. float_of_int result.Driver.issued
      in
      (builder.Registry.name, unavailability))
    Registry.paper_five

(* --- Figure 9: communication overhead --------------------------------- *)

let fig9a ?(n = 9) ?(write_ratios = default_write_ratios) () =
  let sizes = Overhead.dqvl_sizes ~n_iqs:n ~n_oqs:n in
  List.map
    (fun w ->
      ( w,
        [
          ("dqvl", Overhead.dqvl sizes ~w);
          ("majority", Overhead.majority ~n ~w);
          ("rowa", Overhead.rowa ~n ~w);
          ("rowa-async", Overhead.rowa_async ~n ~w);
          ("primary-backup", Overhead.primary_backup ~n ~w);
        ] ))
    write_ratios

let fig9a_measured ?pool ?(seed = 42L) ?(ops = 400)
    ?(write_ratios = [ 0.05; 0.25; 0.5; 0.75; 0.95 ]) () =
  (* On-demand renewal, a long volume lease and one shared object: the
     regime the analytical model describes. *)
  let builder =
    Registry.dqvl ~volume_lease_ms:600_000. ~proactive_renew:false ()
  in
  let topology = paper_topology () in
  pmap ?pool
    (fun w ->
      let spec =
        {
          Spec.default with
          Spec.write_ratio = w;
          sharing = Spec.Shared_uniform { objects = 1 };
        }
      in
      let engine = Engine.create ~seed () in
      let instance = builder.Registry.build engine topology () in
      let config = { (Driver.default_config spec) with Driver.ops_per_client = ops } in
      let result = Driver.run engine topology instance.Registry.api config in
      (w, result.Driver.messages_per_request))
    write_ratios

let fig9b ?(n_iqs = 5) ?(w = 0.25) ?(n_oqs_list = [ 5; 9; 13; 17; 21; 25 ]) () =
  List.map
    (fun n_oqs ->
      let sizes = Overhead.dqvl_sizes ~n_iqs ~n_oqs in
      ( n_oqs,
        [
          ("dqvl", Overhead.dqvl sizes ~w);
          ("majority", Overhead.majority ~n:n_oqs ~w);
          ("rowa", Overhead.rowa ~n:n_oqs ~w);
        ] ))
    n_oqs_list

let bandwidth ?pool ?(seed = 42L) ?(ops = 200) ?(write_ratio = 0.25) () =
  let topology = paper_topology () in
  let spec = { Spec.default with Spec.write_ratio } in
  pmap ?pool
    (fun (builder : Registry.builder) ->
      let engine = Engine.create ~seed () in
      let instance = builder.Registry.build engine topology () in
      let config = { (Driver.default_config spec) with Driver.ops_per_client = ops } in
      let result = Driver.run engine topology instance.Registry.api config in
      (builder.Registry.name, result.Driver.messages_per_request, result.Driver.bytes_per_request))
    Registry.paper_five

let saturation ?pool ?(seed = 42L) ?(ops = 300) ?(service_ms = 1.)
    ?(rates = [ 10.; 50.; 100.; 200. ]) () =
  let topology = paper_topology () in
  let builders = [ Registry.dqvl (); Registry.majority ] in
  let tasks = List.concat_map (fun r -> List.map (fun b -> (r, b)) builders) rates in
  let results =
    pmap ?pool
      (fun (rate, (builder : Registry.builder)) ->
        let engine = Engine.create ~seed () in
        let instance = builder.Registry.build engine topology () in
        instance.Registry.set_service_time service_ms;
        let spec =
          {
            Spec.default with
            Spec.write_ratio = 0.05;
            arrival = Spec.Open { rate_per_s = rate };
          }
        in
        let config =
          {
            (Driver.default_config spec) with
            Driver.ops_per_client = ops;
            timeout_ms = 10_000.;
          }
        in
        let result = Driver.run engine topology instance.Registry.api config in
        (builder.Registry.name, Stats.mean result.Driver.all_latency))
      tasks
  in
  List.map2 (fun rate per -> (rate, per)) rates (chunk_list (List.length builders) results)

(* --- Ablations --------------------------------------------------------- *)

let ablation_leases ?pool ?seed ?ops () =
  response_time ?pool ?seed ?ops
    ~builders:[ Registry.dqvl (); Registry.dq_basic ]
    ~spec:{ Spec.default with Spec.write_ratio = 0.05 }
    ()

let ablation_lease_len ?pool ?seed ?ops ?(leases_ms = [ 250.; 1000.; 5000.; 20000. ]) () =
  let topology = paper_topology () in
  let spec = { Spec.default with Spec.write_ratio = 0.05 } in
  pmap ?pool
    (fun lease ->
      let builder = Registry.dqvl ~volume_lease_ms:lease ~proactive_renew:false () in
      (lease, run_one ?seed ?ops ~topology ~spec builder))
    leases_ms

let ablation_bursts ?pool ?seed ?ops ?(burst_means = [ 1.; 2.; 5.; 10.; 50. ]) () =
  let topology = paper_topology () in
  pmap ?pool
    (fun mean ->
      let spec =
        {
          Spec.default with
          Spec.write_ratio = 0.5;
          sharing = Spec.Shared_uniform { objects = 1 };
          burst_mean = (if mean <= 1. then None else Some mean);
        }
      in
      (mean, run_one ?seed ?ops ~topology ~spec (Registry.dqvl ())))
    burst_means

type staleness_row = {
  s_protocol : string;
  s_stale_fraction : float;
  s_mean_behind_ms : float;
  s_max_behind_ms : float;
}

let ablation_staleness ?pool ?(seed = 42L) ?(ops = 150)
    ?(anti_entropy_periods = [ 250.; 1_000.; 4_000. ]) () =
  let topology = Topology.make ~n_servers:5 ~n_clients:2 () in
  let spec =
    {
      Spec.default with
      Spec.write_ratio = 0.5;
      sharing = Spec.Shared_uniform { objects = 1 };
    }
  in
  (* Message loss makes epidemic propagation actually depend on the
     anti-entropy period: direct update pushes are often lost, so the
     periodic exchange bounds how far behind a replica can fall. *)
  let faults = { Dq_net.Net.loss = 0.3; duplicate = 0.; jitter_ms = 0. } in
  let measure (name, (builder : Registry.builder)) =
    let engine = Engine.create ~seed () in
    let instance = builder.Registry.build engine topology ~faults () in
    let config = { (Driver.default_config spec) with Driver.ops_per_client = ops } in
    let result = Driver.run engine topology instance.Registry.api config in
    let report = Staleness.measure result.Driver.history in
    {
      s_protocol = name;
      s_stale_fraction = Staleness.stale_fraction report;
      s_mean_behind_ms = report.Staleness.mean_behind_ms;
      s_max_behind_ms = report.Staleness.max_behind_ms;
    }
  in
  pmap ?pool measure
    (List.map
       (fun period ->
         ( Printf.sprintf "rowa-async ae=%.0fms" period,
           Registry.rowa_async ~anti_entropy_ms:period () ))
       anti_entropy_periods
    @ [ ("dqvl", Registry.dqvl ()); ("majority", Registry.majority) ])

let ablation_orq ?pool ?seed ?ops ?(read_quorums = [ 1; 2; 3 ]) () =
  let topology = paper_topology () in
  let spec = { Spec.default with Spec.write_ratio = 0.05 } in
  pmap ?pool
    (fun orq ->
      let make_config servers =
        let n = List.length servers in
        let oqs =
          Qs.threshold
            ~name:(Printf.sprintf "oqs(r=%d)" orq)
            ~members:servers ~read:orq
            ~write:(n - orq + 1)
        in
        { (Dq_core.Config.dqvl ~servers ()) with Dq_core.Config.oqs }
      in
      let builder =
        Registry.dqvl_custom ~name:(Printf.sprintf "dqvl-orq%d" orq) make_config
      in
      let row = run_one ?seed ?ops ~topology ~spec builder in
      (orq, { row with protocol = Printf.sprintf "dqvl orq=%d" orq }))
    read_quorums

let ablation_object_lease ?pool ?seed ?ops ?(object_leases_ms = [ 500.; 2_000. ]) () =
  (* Scattered readers acquire callbacks at many replicas; writes must
     invalidate every holder. Finite object leases let stale holders
     simply lapse (think time gives them the chance), trading renewal
     traffic on the read side for cheaper writes. *)
  let topology = paper_topology () in
  let spec =
    {
      Spec.default with
      Spec.write_ratio = 0.5;
      locality = 0.5;
      think_time_ms = 300.;
      sharing = Spec.Shared_uniform { objects = 1 };
    }
  in
  let run (name, builder) =
    let engine = Engine.create ?seed:(Some (Option.value seed ~default:42L)) () in
    let instance = builder.Registry.build engine topology () in
    let config =
      { (Driver.default_config spec) with Driver.ops_per_client = Option.value ops ~default:120 }
    in
    let result = Driver.run engine topology instance.Registry.api config in
    (name, result.Driver.messages_per_request, Stats.mean result.Driver.write_latency)
  in
  pmap ?pool run
    (("callbacks (infinite)", Registry.dqvl ())
    :: List.map
         (fun lease ->
           ( Printf.sprintf "object lease %.0fms" lease,
             Registry.dqvl ~object_lease_ms:lease () ))
         object_leases_ms)

let ablation_batch_renewals ?pool ?(seed = 42L) () =
  (* One OQS node proactively renewing six volumes' leases from five
     IQS nodes for 20 s of virtual time. *)
  let run ~batch =
    let engine = Engine.create ~seed () in
    let topology = Topology.make ~n_servers:5 ~n_clients:1 () in
    let servers = Topology.servers topology in
    let config =
      {
        (Dq_core.Config.dqvl ~servers ~volume_lease_ms:1_000. ~proactive_renew:true ()) with
        Dq_core.Config.batch_renewals = batch;
      }
    in
    let cluster = Dq_core.Cluster.create engine topology config in
    let api = Dq_core.Cluster.api cluster in
    let rec touch v =
      if v < 6 then
        api.Dq_intf.Replication.submit_read ~client:5 ~server:0
          (Dq_storage.Key.make ~volume:v ~index:0)
          (fun _ -> touch (v + 1))
    in
    touch 0;
    Engine.run ~until:20_000. engine;
    api.Dq_intf.Replication.quiesce ();
    let stats = api.Dq_intf.Replication.message_stats () in
    let count label =
      (* Remote-only explicitly: the overhead model compares network
         renewal traffic, so local (src = dst) renewals stay excluded. *)
      Option.value
        (List.find_map
           (fun (l, n) -> if String.equal l label then Some n else None)
           (Dq_telemetry.Metrics.by_label ~include_local:false stats))
        ~default:0
    in
    count "vol_renew_req" + count "vols_renew_req"
  in
  pmap ?pool
    (fun (name, batch) -> (name, run ~batch))
    [ ("per-volume renewals", false); ("batched renewals", true) ]

let ablation_atomic ?pool ?seed ?ops () =
  response_time ?pool ?seed ?ops
    ~builders:
      [
        Registry.dqvl ();
        Registry.dqvl_atomic;
        Registry.majority;
        Registry.atomic_majority;
      ]
    ~spec:{ Spec.default with Spec.write_ratio = 0.05 }
    ()

let ablation_grid ?(p = 0.01) ?(w = 0.25) ?(ns = [ 4; 9; 16 ]) () =
  List.map
    (fun n ->
      let side = int_of_float (Float.round (sqrt (float_of_int n))) in
      let members = List.init n Fun.id in
      let grid = Qs.grid ~rows:side ~cols:side members in
      ( n,
        [
          ("majority", Avail.unavailability (Avail.Majority { n }) ~p ~w);
          ("grid", Avail.unavailability (Avail.Custom { read = grid; write = grid }) ~p ~w);
        ] ))
    ns
