(** An output-quorum-system (OQS) server node.

    OQS nodes cache object values under the volume-lease protocol and
    serve reads. A read of object [o] may be answered only while
    {b condition C} holds: there is an IQS read quorum from {e every}
    member of which this node holds both a valid volume lease and a
    valid object lease (callback). When C does not hold, the node runs
    the paper's QRPC variation — sending each IQS node exactly what it
    is missing (volume renewal, object renewal, or both combined) and
    retrying with fresh quorums until C becomes true.

    All cached state is volatile: a crash clears it (see
    {!on_recover}), and subsequent reads rebuild it through renewals. *)

open Dq_storage

type t

val create :
  net:Message.t Dq_net.Net.t ->
  clock:Dq_sim.Clock.t ->
  config:Config.t ->
  rng:Dq_util.Rng.t ->
  me:int ->
  t

val handle : t -> src:int -> Message.t -> unit

val on_recover : t -> unit
(** Reset the cache to its initial (all-invalid) state. *)

val quiesce : t -> unit
(** Stop proactive lease-renewal timers (end-of-experiment drain). *)

(** {2 Introspection} *)

val is_locally_valid : t -> Key.t -> bool
(** Does condition C currently hold for the object (a read would be a
    {e read hit})? *)

val cached : t -> Key.t -> Versioned.t

val volume_valid_from : t -> volume:int -> iqs:int -> bool

val object_valid_from : t -> Key.t -> iqs:int -> bool

val local_time : t -> float

val active_ensure_loops : t -> int

val next_lease_expiry_ms : t -> float option
(** Virtual-time delay until the earliest currently-valid volume lease
    held by this node expires; [None] when no finite unexpired lease is
    held (or volume leases are disabled). Fault orchestration uses this
    to fire partitions precisely inside a lease-expiry window. *)
