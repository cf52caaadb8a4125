(** A two-level hierarchical timer wheel for the dense short-horizon
    timers (lease expiries, retransmissions, per-message deliveries)
    that dominate the engine's event population.

    The wheel stores [(time, seq, 'a)] triples in O(1) per insert.
    It does not order events: the owner pulls the events of crossed
    slots with {!advance} and merges them into its event heap, which
    restores the exact [(time, seq)] total order — so an engine built
    on wheel + heap fires in exactly the same order as one built on
    the heap alone. Events the wheel cannot place (before the current
    {!boundary}, past the {!horizon}, or on a float-rounding edge) are
    rejected by {!add} and must be kept in the heap: the wheel <-> heap
    overflow handoff.

    Default geometry: 256 level-1 slots of [slot_ms] (default 1 ms)
    plus a rolling ring of 256 level-2 slots of one level-1 rotation
    each. Promoting a rotation into level 1 frees its level-2 slot for
    the rotation 256 later, so the {!horizon} always reaches 256
    rotations (roughly 65.5 s) past the current level-1 window, however
    long the wheel goes without emptying. *)

type 'a t

val create : ?slot_ms:float -> dummy:'a -> unit -> 'a t
(** [dummy] fills vacated slot cells (never returned). [slot_ms]
    must be positive. *)

val length : 'a t -> int
(** Events currently stored (including ones logically cancelled by the
    owner — the wheel does not know about cancellation). *)

val boundary : 'a t -> float
(** Every stored event has [time >= boundary t]: anything strictly
    below may be fired without consulting the wheel. *)

val horizon : 'a t -> float
(** Absolute end (exclusive) of the covered range. It moves forward
    with {!advance}. *)

val add : 'a t -> time:float -> seq:int -> 'a -> bool
(** Store an event; [false] means the wheel cannot hold it (keep it in
    the heap). Never places an event in a slot later than its time. *)

val advance : 'a t -> drain:(time:float -> seq:int -> 'a -> unit) -> unit
(** Move {!boundary} forward past the next non-empty slot, handing that
    slot's events (in unspecified order) to [drain].
    Raises [Invalid_argument] when empty. *)

val rebase : 'a t -> now:float -> unit
(** Re-anchor an empty wheel so [now] falls in its first slot. Raises
    [Invalid_argument] if the wheel is not empty. *)
