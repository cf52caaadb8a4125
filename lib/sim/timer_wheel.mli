(** A two-level hierarchical timer wheel for the dense short-horizon
    timers (lease expiries, retransmissions, per-message deliveries)
    that dominate the engine's event population.

    The wheel stores [(time, seq, 'a)] triples in O(1) per insert.
    It does not order events: {!advance} loads the events of the next
    crossed slot into a sorted {!Event_heap.run}, which restores the
    exact [(time, seq)] order within the slot — so an engine built on
    wheel, run and heap fires in exactly the same order as one built on
    a heap alone. Events the wheel cannot place (before the current
    {!boundary}, past the {!horizon}, or on a float-rounding edge) are
    rejected by {!add} and must be kept in the owner's heap: the wheel
    <-> heap overflow handoff.

    Default geometry: 256 level-1 slots of [slot_ms] (default 1 ms)
    plus a rolling ring of 256 level-2 slots of one level-1 rotation
    each. Promoting a rotation into level 1 frees its level-2 slot for
    the rotation 256 later, so the {!horizon} always reaches 256
    rotations (roughly 65.5 s) past the current level-1 window, however
    long the wheel goes without emptying. *)

type 'a t

val create : ?slot_ms:float -> dummy:'a -> locate:('a -> int -> unit) -> unit -> 'a t
(** [dummy] fills vacated slot cells (never returned). [slot_ms]
    must be positive. The wheel calls [locate x pos] whenever it places
    [x] in a cell: on {!add}, when a promotion moves it, and when
    {!remove} moves it into the hole it leaves. [pos] (non-negative) is
    the cell's number for {!remove}; the owner keeps the latest one. *)

val length : 'a t -> int
(** Events currently stored: those added, less those {!remove}d or
    loaded into a run by {!advance}. *)

val boundary : 'a t -> float
(** Every stored event has [time >= boundary t]: anything strictly
    below may be fired without consulting the wheel. *)

val horizon : 'a t -> float
(** Absolute end (exclusive) of the covered range. It moves forward
    with {!advance}. *)

val add : 'a t -> time:float -> seq:int -> 'a -> bool
(** Store an event; [false] means the wheel cannot hold it (keep it in
    the heap). Never places an event in a slot later than its time. *)

val remove : 'a t -> pos:int -> 'a -> unit
(** [remove t ~pos x] deletes [x] in O(1) if the cell [pos] (the last
    one reported to [locate] for [x]) still holds it, comparing with
    [==]. Otherwise [x] has already left the wheel (loaded into a run
    by {!advance}, or removed) and the call does nothing; so does any
    negative [pos]. Order within a slot is restored by {!advance}, so a
    removal leaves the order of the other events unchanged. *)

val advance : 'a t -> 'a Event_heap.run -> unit
(** Move {!boundary} forward past the next non-empty slot and load that
    slot's events into the run ({!Event_heap.load_run}: sorted by
    [(time, seq)]); the slot's cells are reset to the dummy. Slot
    placement is monotone in time, so every event still in the wheel is
    at or after every loaded one. Raises
    [Invalid_argument] when the wheel is empty, or when the run still
    holds unconsumed entries. *)

val rebase : 'a t -> now:float -> unit
(** Re-anchor an empty wheel so [now] falls in its first slot. Raises
    [Invalid_argument] if the wheel is not empty. *)
