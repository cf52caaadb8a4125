(** One function per figure of the paper's evaluation (Section 4), plus
    the ablations listed in DESIGN.md. Simulation-based figures (6, 7
    and the measured overlay of 9) run the closed-loop driver on the
    paper's topology — nine edge servers, three application clients,
    8/86/80 ms one-way delays. Figures 8 and 9 are analytical. *)

(** {2 Parallelism}

    Every simulation sweep below is a batch of independent (protocol x
    point x seed) runs, each on its own freshly seeded engine. Given
    [~pool], those runs fan across its domains; without one they run
    serially on the caller. The parallel map preserves input order and
    runs share no mutable state, so the output is bit-identical for
    every pool size and for no pool at all. *)

type response_row = {
  protocol : string;
  read_ms : float;    (** mean read response time *)
  write_ms : float;   (** mean write response time *)
  overall_ms : float;
  completed : int;
  failed : int;
  violations : int;   (** regular-semantics violations observed *)
}

val paper_topology : ?n_servers:int -> ?n_clients:int -> unit -> Dq_net.Topology.t

val response_time :
  ?pool:Dq_par.Pool.t ->
  ?seed:int64 ->
  ?ops:int ->
  ?builders:Registry.builder list ->
  spec:Dq_workload.Spec.t ->
  unit ->
  response_row list
(** Run every builder on a fresh engine over the paper topology. *)

(** {2 Response time (prototype experiments)} *)

val fig6a : ?pool:Dq_par.Pool.t -> ?seed:int64 -> ?ops:int -> unit -> response_row list
(** Five protocols at 5% writes, full locality. *)

val fig6b :
  ?pool:Dq_par.Pool.t -> ?seed:int64 -> ?ops:int -> ?write_ratios:float list -> unit
  -> (float * response_row list) list
(** Mean response time as the write ratio sweeps 0..1. *)

val fig7a : ?pool:Dq_par.Pool.t -> ?seed:int64 -> ?ops:int -> unit -> response_row list
(** 5% writes at 90% access locality. *)

val fig7b :
  ?pool:Dq_par.Pool.t -> ?seed:int64 -> ?ops:int -> ?localities:float list -> unit
  -> (float * response_row list) list
(** Mean response time as access locality sweeps 0..1 at 5% writes. *)

(** {2 Availability (analytical)} *)

val fig8a : ?p:float -> ?n:int -> ?write_ratios:float list -> unit
  -> (float * (string * float) list) list
(** Unavailability per protocol vs write ratio; default n = 15,
    p = 0.01. *)

val fig8b : ?p:float -> ?w:float -> ?ns:int list -> unit
  -> (int * (string * float) list) list
(** Unavailability per protocol vs replica count; default w = 0.25. *)

val fig8_measured :
  ?pool:Dq_par.Pool.t ->
  ?seed:int64 ->
  ?ops:int ->
  ?p:float ->
  ?write_ratio:float ->
  unit ->
  (string * float) list
(** Simulation cross-check of Figure 8: run every protocol under
    continuous crash/recovery churn (steady-state per-node
    unavailability [p], default 0.1 so differences are measurable in a
    finite run) with request redirection, and report the measured
    fraction of client operations that received no response within the
    timeout. Compare against {!fig8a} evaluated at the same [p]. *)

(** {2 Communication overhead (analytical + measured)} *)

val fig9a : ?n:int -> ?write_ratios:float list -> unit
  -> (float * (string * float) list) list
(** Expected messages per request vs write ratio (model). *)

val fig9a_measured :
  ?pool:Dq_par.Pool.t -> ?seed:int64 -> ?ops:int -> ?write_ratios:float list -> unit
  -> (float * float) list
(** Simulator-measured DQVL messages per request vs write ratio
    (on-demand lease renewal, one shared object), cross-checking the
    model. *)

val fig9b : ?n_iqs:int -> ?w:float -> ?n_oqs_list:int list -> unit
  -> (int * (string * float) list) list
(** Messages per request as the OQS grows with the IQS fixed. *)

val bandwidth :
  ?pool:Dq_par.Pool.t -> ?seed:int64 -> ?ops:int -> ?write_ratio:float -> unit
  -> (string * float * float) list
(** Measured (protocol, messages/request, bytes/request) under the
    paper topology — a byte-level refinement of Figure 9's equal-weight
    message counting, using the wire-size models in
    {!Dq_core.Message.size_of} and {!Dq_proto.Base_msg.size_of}. *)

val saturation :
  ?pool:Dq_par.Pool.t -> ?seed:int64 -> ?ops:int -> ?service_ms:float -> ?rates:float list
  -> unit
  -> (float * (string * float) list) list
(** Open-loop load study (beyond the paper): Poisson arrivals per
    client at increasing rates, with a per-message service time at
    every node, reporting mean response time — DQVL's local reads keep
    message load off the wide-area quorum, so it saturates later than
    the majority quorum. *)

(** {2 Ablations} *)

val ablation_leases :
  ?pool:Dq_par.Pool.t -> ?seed:int64 -> ?ops:int -> unit -> response_row list
(** DQVL vs the basic dual-quorum protocol (value of volume leases) on
    the target workload, plus behaviour under an OQS node crash. *)

val ablation_lease_len :
  ?pool:Dq_par.Pool.t -> ?seed:int64 -> ?ops:int -> ?leases_ms:float list -> unit
  -> (float * response_row) list
(** DQVL response time vs volume lease length (on-demand renewal). *)

val ablation_bursts :
  ?pool:Dq_par.Pool.t -> ?seed:int64 -> ?ops:int -> ?burst_means:float list -> unit
  -> (float * response_row) list
(** DQVL response time vs workload burst length at 50% writes (bursts
    turn read misses into hits and write-throughs into suppresses). *)

type staleness_row = {
  s_protocol : string;
  s_stale_fraction : float;
  s_mean_behind_ms : float;
  s_max_behind_ms : float;
}

val ablation_staleness :
  ?pool:Dq_par.Pool.t -> ?seed:int64 -> ?ops:int -> ?anti_entropy_periods:float list
  -> unit
  -> staleness_row list
(** How stale ROWA-Async reads get (two clients sharing one object at
    50% writes) as the anti-entropy period grows, versus DQVL and
    majority which never return stale data. Quantifies the paper's
    "no worst-case bound on staleness" argument. *)

val ablation_orq :
  ?pool:Dq_par.Pool.t -> ?seed:int64 -> ?ops:int -> ?read_quorums:int list -> unit
  -> (int * response_row) list
(** DQVL with OQS read quorum sizes > 1 (paper future work): read
    latency cost of larger read quorums. *)

val ablation_grid : ?p:float -> ?w:float -> ?ns:int list -> unit
  -> (int * (string * float) list) list
(** Grid-quorum IQS vs majority IQS availability (paper future work). *)

val ablation_object_lease :
  ?pool:Dq_par.Pool.t -> ?seed:int64 -> ?ops:int -> ?object_leases_ms:float list -> unit
  -> (string * float * float) list
(** Finite object leases (paper footnote 4): (config, messages per
    request, mean write latency) for infinite callbacks vs finite
    object leases, under scattered readers with think time. *)

val ablation_batch_renewals :
  ?pool:Dq_par.Pool.t -> ?seed:int64 -> unit -> (string * int) list
(** Renewal request counts over 20 s for six proactively-renewed
    volumes, with and without {!Dq_core.Config.batch_renewals}. *)

val ablation_atomic :
  ?pool:Dq_par.Pool.t -> ?seed:int64 -> ?ops:int -> unit -> response_row list
(** The cost of atomic semantics (paper future work, Section 6): DQVL
    and majority with and without read-imposition, on the target
    workload. The atomic variants' histories are additionally checked
    for new-old inversions. *)
