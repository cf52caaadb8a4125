(** Read/write strategies: probability distributions over quorums.

    Following {e Read-Write Quorum Systems Made Practical} (Whittaker
    et al.), a strategy pairs a quorum system with a distribution over
    its quorums. The sampling path is seed-deterministic (all
    randomness flows through {!Dq_util.Rng}), and explicit strategies
    support exact load / capacity / expected-latency computations —
    the quantities the {!Optimizer} trades along its Pareto frontier.

    Two flavours:

    - the {b default} (implicit) strategy wraps the construction's
      legacy sampler ({!Quorum_system.choose_read} /
      [choose_write]) and consumes the RNG stream bit-identically to
      the pre-strategy code, so default-configured simulations are
      byte-identical;
    - {b explicit} strategies carry an enumerated distribution (one
      RNG draw per sample, inverse-CDF), constructed by
      {!explicit}, {!uniform}, or the optimizer. *)

type t

val default : Quorum_system.t -> Quorum_system.mode -> t
(** The construction's legacy sampler (see the distribution notes in
    {!Quorum_system.choose_read}). Sampling consumes the RNG exactly
    as [Quorum_system.choose] does. *)

val default_read : Quorum_system.t -> t

val default_write : Quorum_system.t -> t

val uniform : Quorum_system.t -> Quorum_system.mode -> t
(** Uniform over the enumerated minimal quorums — the unbiased
    selection the legacy weighted/grid samplers only approximate.
    Requires [size <= Quorum_system.enumeration_bound]. *)

val uniform_read : Quorum_system.t -> t

val explicit : Quorum_system.t -> Quorum_system.mode -> (int list * float) list -> t
(** An explicit distribution; weights are validated non-negative and
    normalized, zero-weight quorums are dropped, and every listed set
    must satisfy the system's quorum predicate for [mode].
    Raises [Invalid_argument] otherwise. *)

val system : t -> Quorum_system.t

val mode : t -> Quorum_system.mode

val is_default : t -> bool

val sample : t -> Dq_util.Rng.t -> int list
(** Draw a quorum. Explicit strategies consume exactly one
    [Rng.float] per sample. *)

val distribution : t -> (int list * float) list option
(** The explicit distribution ([None] for default strategies, whose
    construction-specific distributions have no closed form here). *)

val support : t -> int list list option
(** Quorums with non-zero probability. *)

(** {2 Exact computations}

    Defined for explicit strategies; raise [Invalid_argument] on
    default strategies (convert with {!uniform} or {!explicit}). *)

val node_load : t -> int -> float
(** Probability the node participates in a sampled quorum. *)

val load : t -> float
(** Max over members of {!node_load} — Naor & Wool's load. *)

val capacity : t -> float
(** [1 / load]: relative throughput ceiling of the busiest node. *)

val expected_latency : t -> latency_ms:(int -> float) -> float
(** Expectation over quorums of the slowest member's latency (a
    quorum completes when its last member responds). *)

val expected_size : t -> float
(** Expected sampled-quorum cardinality (messages per operation). *)

val pp : Format.formatter -> t -> unit
