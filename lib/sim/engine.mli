(** The discrete-event simulation engine.

    Virtual time is a float number of seconds starting at 0. Events
    scheduled for the same instant fire in scheduling order (a strictly
    increasing sequence number breaks ties), which makes runs
    deterministic. All simulator randomness must be drawn from {!rng} (or
    generators split from it) so a run is a pure function of the seed. *)

type t

type handle
(** A scheduled event, usable to cancel it. *)

val create : ?seed:int64 -> unit -> t
(** [create ~seed ()] makes an engine with virtual time 0. Default seed
    is [1L]. *)

val now : t -> float
(** Current virtual time in seconds. *)

val telemetry : t -> Dq_telemetry.Bus.t
(** The engine's telemetry bus. Every component built on this engine
    publishes its typed events here, stamped with the engine's virtual
    clock; with no sink subscribed the bus is free. *)

val rng : t -> Dq_util.Rng.t
(** The engine's root random stream. *)

val split_rng : t -> Dq_util.Rng.t
(** A fresh independent random stream (see {!Dq_util.Rng.split}). *)

val schedule : t -> delay:float -> (unit -> unit) -> handle
(** [schedule t ~delay f] runs [f] at [now t +. delay]. [delay] must be
    non-negative. *)

val schedule_at : t -> time:float -> (unit -> unit) -> handle
(** Absolute-time variant; [time] must not be in the past. *)

val schedule_guarded :
  t -> delay:float -> guard:('s -> int -> bool) -> 's -> int -> (unit -> unit) -> handle
(** [schedule_guarded t ~delay ~guard state stamp f] runs [f] at
    [now t +. delay] if [guard state stamp] holds then. It allocates no
    closure for the check, so [guard] should be a toplevel function:
    [Net.timer] passes the node's state and its incarnation at arming
    time. The event counts as executed whether or not [f] runs, and it
    drops [f] when it fires or is cancelled. *)

val schedule_delivery :
  t -> delay:float -> (src:int -> dst:int -> 'm -> unit) -> src:int -> dst:int -> 'm -> unit
(** [schedule_delivery t ~delay handler ~src ~dst msg] calls
    [handler ~src ~dst msg] at [now t +. delay]. The event is the
    triple plus the handler, which the caller builds once: [Net] makes
    one per network. A delivery cannot be cancelled. *)

val cancel : handle -> unit
(** Cancelling a fired or already-cancelled event is a no-op. A
    cancelled event releases its action at once, so the closure and
    what it captures can be collected before the event's due time. An
    event still in the timer wheel also leaves it at once, in O(1), so
    it costs nothing more; one already queued to fire soon is dropped
    when it reaches the front. *)

val is_pending : handle -> bool

val pending_events : t -> int
(** Number of not-yet-fired, not-cancelled events. *)

val step : t -> bool
(** Fire the next event. Returns [false] if the queue was empty. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Fire events until the queue empties, or virtual time would exceed
    [until], or [max_events] have fired. With [until], time is advanced
    to exactly [until] on return. *)

val run_while : t -> (unit -> bool) -> unit
(** [run_while t cond] fires events while [cond ()] holds and the queue
    is non-empty. [cond] is checked before each event. *)

val events_executed : t -> int
(** Total events fired since creation. *)
