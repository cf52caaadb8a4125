(** A checker for Lamport regular register semantics over a recorded
    history (the consistency guarantee DQVL claims; Section 3.3).

    For every completed read [r] of key [k] the returned value must be
    - the value of the completed write of [k] with the highest logical
      clock among those that responded before [r] was invoked (or the
      initial value if there is none), or
    - the value of some write of [k] concurrent with [r] (its interval
      overlaps [r]'s; a write that never completed is concurrent with
      every later read).

    The checker is used two ways: asserting that the quorum protocols
    never violate regularity (even under crashes, loss, duplication and
    partitions), and {e measuring} how often ROWA-Async does.

    Tie rules: among completed writes with equal logical clocks, the
    later one in input order is the freshest; a value written more than
    once is attributed to its last write in input order.

    Cost: [check] indexes each key's completed writes by response time
    with a running maximum of their clocks (see {!Write_index}) and
    binary-searches it per read, so it takes O((R + W) log W) for R
    reads and W writes. *)

type violation = {
  read : History.op;
  returned_write : History.op option;  (** the write whose value was read *)
  expected_lc : Dq_storage.Lc.t;  (** clock of the freshest completed write *)
  reason : string;
}

type report = {
  reads : int;
  checked : int;  (** completed reads *)
  violations : violation list;
}

val check : History.op list -> report

val is_regular : History.op list -> bool

val pp_report : Format.formatter -> report -> unit

(** {2 Atomicity (paper future work, Section 6)} *)

type inversion = {
  first_read : History.op;
  second_read : History.op;  (** follows [first_read] in real time *)
  first_lc : Dq_storage.Lc.t;
  second_lc : Dq_storage.Lc.t;  (** older than [first_lc]: a new-old inversion *)
}

val new_old_inversions : History.op list -> inversion list
(** Pairs of non-overlapping completed reads of the same key where the
    later read returned an older write — permitted by regular
    semantics (when concurrent with writes) but forbidden by atomic
    (linearizable) semantics. Sorted by first then second read id.
    Reads are ordered by response time, equal times in reverse input
    order, and a pair's first read precedes its second in that order.
    Costs O(R log R) plus the number of pairs reported. *)

val is_atomic : History.op list -> bool
(** Regular and free of new-old inversions. For histories whose writes
    carry unique values and totally ordered logical clocks (all
    histories produced by this harness), this is the standard
    atomicity condition for read/write registers. Stops at the first
    inversion; O((R + W) log (R + W)). *)

(** {2 Session guarantees (Bayou; the paper's reference [26])} *)

type session_report = {
  ryw_violations : int;
      (** completed reads that missed one of the client's own earlier
          completed writes (read-your-writes) *)
  monotonic_violations : int;
      (** completed reads older than one of the client's own earlier
          completed reads (monotonic reads) *)
}

val check_sessions : History.op list -> session_report
(** Per-client, per-key session-guarantee check. Protocols with regular
    semantics always pass; plain ROWA-Async fails when a client moves
    between replicas; session-guaranteed ROWA-Async passes again. *)
