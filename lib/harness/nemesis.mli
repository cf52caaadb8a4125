(** Declarative fault orchestration ("nemesis") over any protocol
    instance.

    A nemesis {e program} is a timeline of composable fault actions —
    partition patterns, bounded crash storms, clock-skew bumps,
    per-link degradation, link flapping, lease-expiry-targeted
    partition windows — interpreted against a {!Registry.instance}
    through its message-type-erased network control handle. Programs
    are plain data: derived deterministically from a seed
    ({!generate}), they replay exactly.

    Partition patterns are implemented with {e directed link cuts}
    among the server nodes only, so application clients always reach
    their front end (the paper's edge setting: a server can be severed
    from its peers while still facing clients) and patterns compose
    with one another. [Heal] clears every network fault at once.

    The interpreter records every action it fires (with the virtual
    time at which it actually fired — lease-targeted windows fire when
    the window opens, not when the step was scheduled) in an event log
    that {!phases} turns into per-phase degraded-mode metrics. *)

(** {2 Programs} *)

type pattern =
  | Isolate_one of { node : int; oneway : bool }
      (** sever the links between [node] and every other server;
          [oneway] cuts only the outgoing direction, leaving the node
          able to hear its peers but not reach them *)
  | Majority_minority of { minority : int list }
      (** split the servers into [minority] and the rest *)
  | Bridge of { bridge : int }
      (** split the other servers into two halves that can only
          communicate through [bridge] *)
  | Ring  (** each server reaches only its two ring neighbours *)

type action =
  | Partition of pattern
  | Heal  (** clear all partitions, cuts, link faults and flapping *)
  | Crash_storm of { victims : int list; stagger_ms : float; down_ms : float }
      (** crash [victims] one after another, [stagger_ms] apart; each
          recovers [down_ms] after its crash — the storm is bounded *)
  | Amnesia_storm of { victims : int list; stagger_ms : float; down_ms : float }
      (** like [Crash_storm], but the crash wipes durable state: each
          victim recovers empty and must state-transfer from its peers
          before serving again *)
  | Gray_degrade of { victims : int list; delay_ms : float; loss : float; duration_ms : float }
      (** gray failure: the victims stay up and keep answering, but
          every message they send or receive suffers [delay_ms] extra
          latency and [loss] extra drop probability for
          [duration_ms] *)
  | Skew_bump of { node : int; skew : float }
      (** re-rate the node's clock (continuously — no reading jump);
          the interpreter clamps [skew] inside the protocol's drift
          bound, so lease arithmetic stays sound *)
  | Degrade_link of { src : int; dst : int; faults : Dq_net.Net.fault_model }
      (** override the fault model of one directed link *)
  | Clear_link of { src : int; dst : int }
  | Flap of { src : int; dst : int; up_ms : float; down_ms : float; duration_ms : float }
      (** the directed link alternates up/down for [duration_ms] *)
  | Lease_window of { pattern : pattern; hold_ms : float; max_wait_ms : float }
      (** wait (polling the cluster's OQS lease tables) until some
          currently-valid volume lease is about to expire, then apply
          [pattern] for [hold_ms] so the partition spans the expiry —
          the adversarial window for lease-based protocols. Fires
          unconditionally after [max_wait_ms]; applies immediately on
          protocols without lease introspection. *)

type step = { at_ms : float; action : action }  (** [at_ms]: absolute virtual time *)

type program = step list

val pp_action : Format.formatter -> action -> unit

val end_ms : program -> float
(** Virtual time by which every step has fired and every bounded fault
    it started (crash storms, flapping, held windows) has ended. *)

(** {2 Seeded generation} *)

type fault_class =
  | Partitions
  | Crashes
  | Amnesia  (** bounded storms of state-wiping crashes (never node 0) *)
  | Gray_failure  (** per-node gray degradation: slow and lossy, not down *)
  | Degraded_links
  | Flapping
  | Clock_skew
  | Lease_expiry
  | Mixed

val all_classes : fault_class list

val class_name : fault_class -> string

val class_of_name : string -> fault_class option

val generate : Dq_util.Rng.t -> fault_class -> n_servers:int -> program
(** A program of the given fault class for a cluster of [n_servers]
    servers — a pure function of the rng state. Every generated
    program heals itself: it ends with [Heal], all crashed nodes
    recover, and {!end_ms} is well before the fuzz driver's horizon,
    so liveness checks remain meaningful. *)

(** {2 Interpretation} *)

type event = { fired_ms : float; label : string }

val install :
  Dq_sim.Engine.t -> Registry.instance -> servers:int list -> program -> event list ref
(** Schedule the program against the instance. Returns the event log
    (newest first); each fired action appends one event. Call before
    running the driver. *)

(** {2 Per-phase degraded-mode metrics} *)

type phase = {
  label : string;  (** the event that opened the phase; ["initial"] first *)
  from_ms : float;
  until_ms : float;
  p_issued : int;
  p_completed : int;  (** eventually responded, even if after the driver timeout *)
  p_failed : int;     (** never responded and never explicitly gave up *)
  p_gave_up : int;    (** the protocol explicitly abandoned the operation *)
}

val phases : events:event list -> history:History.op list -> phase list
(** Slice the history at each nemesis event: operations are assigned
    to the phase in which they were {e invoked}. *)
