(** The perf-campaign scenario registry.

    A scenario is a named, versioned experiment shape: topology,
    workload, protocols under test, op counts (full and smoke), value
    padding and an optional fault schedule. Scenarios run entirely in
    virtual time, so every metric in the rendered results is a pure
    function of the seed — which is what lets [dune runtest] compare
    fresh smoke runs against the committed baselines byte for byte.

    Changing a scenario's definition must bump its [version]: the
    promoted baseline then shows the reshape as a version change in
    its diff, not only as moved numbers. *)

type t = {
  name : string;
  version : int;  (** part of the baseline contract — bump on any reshape *)
  description : string;
  protocols : string list;  (** {!Dq_harness.Registry.find} names *)
  n_servers : int;
  n_clients : int;
  ops_per_client : int;
  smoke_ops : int;  (** op count under [--smoke] (CI) *)
  spec : Dq_workload.Spec.t;
  value_pad : int;  (** pad write values to this size (large-object runs) *)
  wan_scale : float;
      (** multiplier on the paper's WAN delays (client-distant 86 ms,
          server-server 80 ms); LAN delays are never scaled *)
  timeout_ms : float;
  redirect_to_up : bool;
  faults : Dq_harness.Driver.event list;
}

val baseline : t
(** Paper topology, 10% writes on shared objects, all five paper
    protocols — the scenario CI gates against a committed baseline. *)

val high_throughput : t
(** Open-loop Poisson arrivals; saturation behaviour. *)

val large_objects : t
(** 16 KiB values; wire-byte costs dominate. *)

val latency_focus : t
(** Read-dominated, 90% locality; tail-latency quantiles. *)

val warm_standby : t
(** A server crashes mid-run and recovers, with request redirection:
    failover latency, availability and staleness. *)

val all : t list

val find : string -> t option

(** {2 Running} *)

type outcome = {
  protocol : string;
  wan_scale : float;     (** effective (scenario × sweep override) *)
  write_ratio : float;   (** effective *)
  result : Dq_harness.Driver.result;
  metrics : Dq_telemetry.Metrics.t;
  aoi : Dq_telemetry.Aoi.t;
  staleness : Dq_harness.Staleness.report;  (** offline oracle *)
  age : Dq_harness.Staleness.age_report;
  violations : int;  (** regular-semantics violations (a metric here —
                         ROWA-Async violates by design) *)
  sim_events : int;
  wall_s : float option;  (** only when [now_s] was supplied *)
}

val run :
  ?now_s:(unit -> float) ->
  ?smoke:bool ->
  ?seed:int64 ->
  t ->
  outcome list
(** One outcome per protocol, in registry order. [now_s] is a
    wall-clock reader (the CLI passes [Unix.gettimeofday]) used only
    for the [wall_s] column of the CLI's table — the library itself
    never reads wall clocks, and the results document never carries
    them. Every run cross-checks the online AoI sink against the
    offline staleness oracle and fails loudly on disagreement.

    @raise Invalid_argument on an unknown protocol name. *)

val sweep :
  ?now_s:(unit -> float) ->
  ?smoke:bool ->
  ?seed:int64 ->
  wan_scales:float list ->
  write_ratios:float list ->
  t ->
  outcome list
(** The cross product of the axes over the scenario's protocols, outer
    to inner: wan_scale, write_ratio, protocol. *)

val run_protocol :
  ?now_s:(unit -> float) ->
  ?wan_scale:float ->
  ?write_ratio:float ->
  smoke:bool ->
  seed:int64 ->
  ?builder:Dq_harness.Registry.builder ->
  t ->
  protocol:string ->
  outcome
(** One cell, run under the id [protocol]. [builder] defaults to
    [Registry.find protocol]; passing one runs a builder the registry
    does not know (how [dqr quorum-opt --apply] runs [dqvl-opt]).
    [wan_scale] multiplies the scenario's own factor (sweep override);
    [write_ratio] replaces the spec's.

    @raise Invalid_argument on an unknown protocol name without
    [builder]. *)
