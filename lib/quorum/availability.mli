(** Analytical availability of quorum systems.

    Following the paper's model (Section 4.2): each node is independently
    failed with probability [p] ("including server crashes and network
    failures"), and an operation is available iff the set of live nodes
    contains the required quorum. Unavailability is computed directly as
    a sum of failure-state probabilities (never as [1. -. availability]),
    so values down to 1e-300 carry full relative precision — the paper
    plots unavailability on a log scale. *)

type mode = Quorum_system.mode = Read | Write

val availability : Quorum_system.t -> mode:mode -> p:float -> float
(** Probability that a quorum of live nodes exists. *)

val unavailability : Quorum_system.t -> mode:mode -> p:float -> float
(** [1 - availability], computed in probability space. Threshold systems
    use closed-form binomial tails; other systems are evaluated by exact
    enumeration over the 2^n live/dead states (requires [size <= 24]). *)

val enumerate :
  Quorum_system.t -> mode:mode -> p:(int -> float) -> want_failure:bool -> float
(** The exact enumeration itself, generalized to a {e per-node} failure
    probability [p id] — the oracle the {!Optimizer}'s frontier is
    cross-checked against. Sums, over all 2^n live/dead states, the
    probability of states without ([want_failure:true]) or with
    ([want_failure:false]) a [mode] quorum. Requires [size <= 24]. *)

val unavailability_p : Quorum_system.t -> mode:mode -> p:(int -> float) -> float
(** [enumerate ~want_failure:true]: unavailability under heterogeneous
    per-node failure probabilities. *)

val unavailability_mc :
  Quorum_system.t -> mode:mode -> p:float -> rng:Dq_util.Rng.t -> samples:int -> float
(** Monte-Carlo estimate for systems too large to enumerate: the
    fraction of sampled live/dead states with no quorum. Standard error
    is about [sqrt (u (1-u) / samples)], so it only resolves
    unavailabilities down to roughly [10 / samples]. *)

val min_availability : Quorum_system.t -> p:float -> float
(** [min] of read and write availability — the paper uses
    min(av_rq, av_wq) compositions for DQVL. *)

val max_unavailability : Quorum_system.t -> p:float -> float
