module Topology = Dq_net.Topology
module Net = Dq_net.Net

type instance = {
  api : Dq_intf.Replication.api;
  partition : int list list -> unit;
  heal : unit -> unit;
  set_service_time : float -> unit; (* per-message processing cost *)
  control : Net.control;
      (* message-type-erased fault-injection handle over the same
         network, for the nemesis orchestrator *)
  server_clock : int -> Dq_sim.Clock.t option;
      (* per-node clock when the protocol models drift; None otherwise *)
  dq_cluster : Dq_core.Cluster.t option;
      (* exposed for introspection (invariant checking); None for the
         baseline protocols *)
}

type builder = {
  name : string;
  build :
    Dq_sim.Engine.t ->
    Topology.t ->
    ?faults:Net.fault_model ->
    ?max_drift:float ->
    unit ->
    instance;
}

let with_drift ?max_drift config =
  match max_drift with
  | Some max_drift when max_drift > 0. -> { config with Dq_core.Config.max_drift }
  | Some _ | None -> config

let dq_instance engine topology ?faults ?max_drift config =
  let config = with_drift ?max_drift config in
  let cluster = Dq_core.Cluster.create engine topology ?faults config in
  let net = Dq_core.Cluster.net cluster in
  {
    api = Dq_core.Cluster.api cluster;
    partition = (fun groups -> Net.partition net groups);
    heal = (fun () -> Net.heal net);
    set_service_time = (fun ms -> Net.set_service_time net ~ms);
    control = Net.control net;
    server_clock = (fun id -> Dq_core.Cluster.server_clock cluster id);
    dq_cluster = Some cluster;
  }

let dqvl ?volume_lease_ms ?proactive_renew ?object_lease_ms ?max_rounds () =
  {
    name = "dqvl";
    build =
      (fun engine topology ?faults ?max_drift () ->
        let servers = Topology.servers topology in
        let config =
          Dq_core.Config.dqvl ~servers ?volume_lease_ms ?proactive_renew ?object_lease_ms
            ?max_rounds ()
        in
        dq_instance engine topology ?faults ?max_drift config);
  }

let dqvl_custom ~name make_config =
  {
    name;
    build =
      (fun engine topology ?faults ?max_drift () ->
        dq_instance engine topology ?faults ?max_drift
          (make_config (Topology.servers topology)));
  }

let dq_basic =
  {
    name = "dq-basic";
    build =
      (fun engine topology ?faults ?max_drift () ->
        let servers = Topology.servers topology in
        dq_instance engine topology ?faults ?max_drift (Dq_core.Config.basic ~servers ()));
  }

let base_instance engine topology ?faults protocol =
  let cluster = Dq_proto.Base_cluster.create engine topology ?faults protocol in
  let net = Dq_proto.Base_cluster.net cluster in
  {
    api = Dq_proto.Base_cluster.api cluster;
    partition = (fun groups -> Net.partition net groups);
    heal = (fun () -> Net.heal net);
    set_service_time = (fun ms -> Net.set_service_time net ~ms);
    control = Net.control net;
    server_clock = (fun _ -> None);
    dq_cluster = None;
  }

let primary_backup =
  {
    name = "primary-backup";
    build =
      (fun engine topology ?faults ?max_drift:_ () ->
        (* The primary lives at an edge site with no co-located client
           (the paper's WAN setting: the primary is remote to the
           measured clients). Clients are routed to servers 0, 1, 2...,
           so the last server qualifies when there are enough. *)
        let n = List.length (Topology.servers topology) in
        let primary = if n > 3 then n - 1 else 0 in
        base_instance engine topology ?faults
          (Dq_proto.Base_cluster.Primary_backup { primary }));
  }

let majority =
  {
    name = "majority";
    build =
      (fun engine topology ?faults ?max_drift:_ () ->
        base_instance engine topology ?faults Dq_proto.Base_cluster.Majority_quorum);
  }

let atomic_majority =
  {
    name = "atomic-majority";
    build =
      (fun engine topology ?faults ?max_drift:_ () ->
        base_instance engine topology ?faults Dq_proto.Base_cluster.Atomic_majority);
  }

let dqvl_atomic =
  {
    name = "dqvl-atomic";
    build =
      (fun engine topology ?faults ?max_drift () ->
        let servers = Topology.servers topology in
        let config =
          {
            (Dq_core.Config.dqvl ~servers ()) with
            Dq_core.Config.atomic_reads = true;
          }
        in
        dq_instance engine topology ?faults ?max_drift config);
  }

let rowa =
  {
    name = "rowa";
    build =
      (fun engine topology ?faults ?max_drift:_ () ->
        base_instance engine topology ?faults Dq_proto.Base_cluster.Rowa);
  }

let rowa_async ?(anti_entropy_ms = 1000.) () =
  {
    name = "rowa-async";
    build =
      (fun engine topology ?faults ?max_drift:_ () ->
        base_instance engine topology ?faults
          (Dq_proto.Base_cluster.Rowa_async { anti_entropy_ms }));
  }

let grid ~rows ~cols =
  {
    name = Printf.sprintf "grid(%dx%d)" rows cols;
    build =
      (fun engine topology ?faults ?max_drift:_ () ->
        let servers = Topology.servers topology in
        if List.length servers < rows * cols then
          invalid_arg "Registry.grid: not enough servers";
        let members = List.filteri (fun i _ -> i < rows * cols) servers in
        let system = Dq_quorum.Quorum_system.grid ~rows ~cols members in
        base_instance engine topology ?faults (Dq_proto.Base_cluster.Custom_quorum system));
  }

(* The by-name table shared by the CLIs and the bench scenario registry.
   "dqvl-paper" is the evaluation configuration (short on-demand
   leases); plain "dqvl" keeps the builder's defaults. *)
let named =
  [
    ("dqvl", fun () -> dqvl ());
    ("dqvl-paper", fun () -> dqvl ~volume_lease_ms:1_000. ~proactive_renew:false ());
    ("dq-basic", fun () -> dq_basic);
    ("primary-backup", fun () -> primary_backup);
    ("majority", fun () -> majority);
    ("atomic-majority", fun () -> atomic_majority);
    ("dqvl-atomic", fun () -> dqvl_atomic);
    ("rowa", fun () -> rowa);
    ("rowa-async", fun () -> rowa_async ());
  ]

let find name =
  List.find_map (fun (n, make) -> if String.equal n name then Some (make ()) else None) named

let known_names () = List.map fst named

(* The paper's five protocols with the evaluation configuration:
   short (1 s) volume leases renewed on demand, so that low access
   locality pays renewal costs at distant replicas (Figure 7) while
   frequent access at the home replica amortizes them. *)
let paper_five =
  [
    dqvl ~volume_lease_ms:1_000. ~proactive_renew:false ();
    primary_backup;
    majority;
    rowa;
    rowa_async ();
  ]
