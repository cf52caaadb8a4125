(** Configuration of a dual-quorum cluster.

    The two quorum systems may be configured independently (that is the
    point of the protocol): the input quorum system (IQS) receives
    writes, the output quorum system (OQS) serves reads. The common
    deployment — and the paper's default — is a majority IQS over the
    edge servers and a read-one/write-all OQS over all edge servers, so
    that reads are served by the client's co-located replica. *)

type t = {
  iqs : Dq_quorum.Quorum_system.t;  (** input quorum system, over server ids *)
  oqs : Dq_quorum.Quorum_system.t;  (** output quorum system, over server ids *)
  iqs_read_strategy : Dq_quorum.Strategy.t option;
      (** quorum-selection strategy for IQS reads (the write path's
          lc-read phase and renewal targeting). [None] — the default in
          {!dqvl} and {!basic} — uses the legacy sampler, which is
          bit-identical to pre-strategy behavior; [Some s] (typically
          from {!Dq_quorum.Optimizer} or {!Dq_quorum.Strategy.explicit})
          samples [s] verbatim. Must be built over [iqs] (the very same
          value) with mode [Read]. *)
  iqs_write_strategy : Dq_quorum.Strategy.t option;
      (** same, for IQS writes (impose and write phase 2) *)
  use_volume_leases : bool;
      (** [true] for DQVL (Section 3.2); [false] for the basic
          dual-quorum protocol (Section 3.1), in which OQS copies are
          guarded by object callbacks alone and a write must collect
          invalidation acknowledgments from an OQS write quorum no
          matter how long that takes. *)
  volume_lease_ms : float;  (** volume lease duration L *)
  object_lease_ms : float option;
      (** object lease duration; [None] gives infinite object leases
          (callbacks), the paper's default (footnote 4). Finite object
          leases trade renewal traffic for cheaper writes: an expired
          object lease needs neither an invalidation nor a delayed
          invalidation. *)
  max_drift : float;
      (** bound on clock drift rate; OQS discounts lease expiry by
          [L * (1 - max_drift)] per the paper *)
  max_delayed : int;
      (** per (volume, OQS node) bound on the delayed-invalidation
          queue; exceeding it advances the epoch and clears the queue *)
  retry_timeout_ms : float;  (** initial QRPC retransmission interval *)
  retry_backoff : float;     (** retransmission interval multiplier *)
  max_rounds : int option;
      (** bound on front-end QRPC retransmission rounds; after this many
          attempts the operation {e gives up} and the front end reports
          failure to the application client instead of retrying forever.
          [None] (the default) retries without bound, the paper's
          model. *)
  proactive_renew : bool;
      (** when [true], an OQS node keeps renewing the volume leases it
          has acquired shortly before they expire, keeping reads local;
          when [false], leases are renewed on demand by read misses *)
  renew_margin_ms : float;   (** how long before expiry to renew *)
  atomic_reads : bool;
      (** upgrade reads from regular to atomic semantics (paper future
          work, Section 6): before returning, the service client pushes
          the value it read through an IQS write quorum (re-using the
          write path with the value's own timestamp), which guarantees
          no later read observes an older version. Costs every read an
          extra IQS round trip. *)
  batch_renewals : bool;
      (** When an OQS node renews proactively, coalesce every volume
          lease from the same IQS node that is within the renewal
          margin into a single request/reply pair — cutting the
          renewal message rate by roughly the number of active volumes
          (the aggregation the paper's amortization argument implies). *)
}

val validate : t -> unit
(** Raises [Invalid_argument] on nonsensical parameters (non-positive
    lease, drift outside [0, 1), margin >= lease, a strategy whose
    system or mode does not match the quorum system it is configured
    for, ...). *)

val dqvl :
  servers:int list ->
  ?volume_lease_ms:float ->
  ?proactive_renew:bool ->
  ?object_lease_ms:float ->
  ?max_drift:float ->
  ?max_rounds:int ->
  unit ->
  t
(** The paper's default DQVL configuration: majority IQS and
    read-one/write-all OQS over [servers], 5000 ms volume leases,
    drift bound 1e-3 (overridable with [max_drift]), proactive renewal
    on, unbounded retransmission ([max_rounds]). *)

val basic : servers:int list -> unit -> t
(** The basic dual-quorum protocol of Section 3.1 (no volume leases). *)

val name : t -> string
(** ["dqvl"], ["dq-basic"], or the same with an ["-atomic"] suffix;
    used in experiment output. *)
