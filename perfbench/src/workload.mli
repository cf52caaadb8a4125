(** The benchmark's workloads and the pass that runs one of them.

    Every workload runs the real protocols, built with
    [Registry.find] and [builder.build], on the paper topology with
    closed-loop clients, one operation outstanding each. The seed goes
    only into [Engine.create ~seed]. *)

type amnesia = { node : int; crash_ms : float; recover_ms : float }

type t = {
  name : string;
  why : string;  (** one line: why the workload is in the benchmark *)
  protocols : string list;  (** registry names; DQVL first *)
  spec : Dq_workload.Spec.t;
  ops_per_client : int;
  server_loss : float;  (** message loss on server-to-server links *)
  amnesia : amnesia option;  (** through [instance.control] *)
  product_sinks : bool;  (** [Metrics] and [Aoi] subscribed, as in [dqr bench run] *)
  topology : unit -> Dq_net.Topology.t;
}

val all : t list

val find : string -> t option

val paper_topology : unit -> Dq_net.Topology.t
(** 9 edge servers and 9 clients, 8/86/80 ms one-way delays. *)

type prepared

type setup = {
  topology : Dq_net.Topology.t;
  prepared : prepared list;
  setup_s : float;  (** wall time of the whole set-up *)
  build_s : float;  (** of which in [builder.build] *)
}

val setup :
  ?spans:Spans.t ->
  ?record:(string -> Dq_telemetry.Bus.sink option) ->
  traced:bool ->
  t ->
  seed:int64 ->
  setup
(** Build every protocol on its own engine. [traced] subscribes a
    {!Counts} sink; [record protocol] may add one more sink. *)

type run = {
  protocol : string;
  result : Dq_harness.Driver.result;
      (** with an empty [history]: it is dropped once checked *)
  writes : int;  (** writes issued *)
  events : int;  (** engine events executed *)
  violations : int;  (** [Regular_checker] violations *)
  reads_checked : int;  (** completed reads the [Staleness] oracle examined *)
  stale_reads : int;
  max_versions_behind : int;
  aoi : Dq_telemetry.Aoi.summary option;  (** with product sinks *)
  counts : Counts.t option;  (** traced runs *)
  simulate_s : float;
  simulate_words : float;
  check_s : float;
  check_words : float;
  staleness_s : float;  (** [Staleness.measure] and [measure_age] *)
  fingerprint : Digest.t;  (** of everything computed in virtual time *)
}

type iteration = {
  setup : setup;
  measure_s : float;
      (** summed simulate, check and staleness time: each protocol from
          its first issued op to its last verdict *)
  runs : run list;  (** in [protocols] order *)
}

val iterate :
  ?spans:Spans.t ->
  ?record:(string -> Dq_telemetry.Bus.sink option) ->
  traced:bool ->
  t ->
  seed:int64 ->
  iteration
(** One pass: a full major GC, a set-up, then every protocol in turn. *)

val completed : iteration -> int
(** Completed ops across protocols. *)

val ops_per_s : iteration -> float
(** Completed ops across protocols over [measure_s]. *)

val fingerprint : iteration -> Digest.t
