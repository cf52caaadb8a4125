(** Builders for every protocol under evaluation, so experiments can
    iterate over protocols uniformly. *)

type instance = {
  api : Dq_intf.Replication.api;
  partition : int list list -> unit;
  heal : unit -> unit;
  set_service_time : float -> unit;
      (** per-message processing cost at every node (queueing model) *)
  control : Dq_net.Net.control;
      (** message-type-erased fault-injection handle (one-way cuts,
          per-link faults, flapping, crashes) over the instance's
          network — what the nemesis orchestrator drives *)
  server_clock : int -> Dq_sim.Clock.t option;
      (** the node's local clock when the protocol models clock drift
          (dual-quorum clusters); [None] for baseline protocols, whose
          correctness does not depend on clocks *)
  dq_cluster : Dq_core.Cluster.t option;
      (** the underlying dual-quorum cluster, for introspection
          (invariant checks, lease-expiry targeting); [None] for
          baseline protocols *)
}

type builder = {
  name : string;
  build :
    Dq_sim.Engine.t ->
    Dq_net.Topology.t ->
    ?faults:Dq_net.Net.fault_model ->
    ?max_drift:float ->
    unit ->
    instance;
      (** [max_drift] overrides the clock-drift bound of drift-aware
          protocols (dual-quorum lease arithmetic); baseline protocols
          ignore it. Values [<= 0.] are ignored. *)
}

val dqvl :
  ?volume_lease_ms:float ->
  ?proactive_renew:bool ->
  ?object_lease_ms:float ->
  ?max_rounds:int ->
  unit ->
  builder
(** [max_rounds] bounds front-end QRPC retransmission: operations give
    up (reporting failure to the client) after that many rounds instead
    of retrying forever. *)

val dqvl_custom : name:string -> (int list -> Dq_core.Config.t) -> builder
(** Full control over the dual-quorum configuration; the function
    receives the topology's server ids. *)

val dq_basic : builder
(** The basic dual-quorum protocol (no volume leases, Section 3.1). *)

val primary_backup : builder
(** Primary is server 0. *)

val majority : builder

val atomic_majority : builder
(** Majority quorum with ABD read-impose: atomic semantics. *)

val dqvl_atomic : builder
(** DQVL with atomic reads (paper future work, Section 6): every read
    pushes the value it returns through an IQS write quorum. *)

val rowa : builder

val rowa_async : ?anti_entropy_ms:float -> unit -> builder

val grid : rows:int -> cols:int -> builder
(** A grid quorum system over the first [rows * cols] servers, driven
    by the standard two-phase quorum protocol (paper future work). *)

val paper_five : builder list
(** The five protocols of the paper's evaluation, in its order:
    DQVL, primary/backup, majority quorum, ROWA, ROWA-Async. *)

val find : string -> builder option
(** By-name lookup over {!known_names}, shared by the CLIs and the
    bench scenario registry. ["dqvl-paper"] is {!dqvl} with the
    evaluation configuration (1 s on-demand volume leases). A builder
    made elsewhere (e.g. [dqr quorum-opt --apply]'s [dqvl-opt]) is not
    findable by name; pass it to its caller as a value. *)

val known_names : unit -> string list
(** The names {!find} resolves, in a fixed order. *)
