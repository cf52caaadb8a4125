(** The simulated message network.

    Delivers typed messages between nodes with per-link one-way delays
    from a {!Topology.t}, under an adjustable fault model:

    - message {b loss} (per-send Bernoulli),
    - message {b duplication} (a second copy with fresh jitter),
    - {b reordering} (uniform jitter added to each delivery),
    - {b partitions} (node groups that cannot exchange messages),
    - {b one-way link cuts} (a directed [(src, dst)] pair stops
      carrying messages while the reverse direction still works),
    - {b per-directed-link fault overrides} (an individual link can be
      lossier, duplicate more, or jitter harder than the global model),
    - {b link flapping} (a link alternates between available and
      severed on a fixed duty cycle),
    - fail-stop {b crashes} (a crashed node neither sends nor receives,
      and its pending timers are invalidated),
    - {b amnesia crashes} (as above, but the recovery notification says
      the node's durable state was wiped, so protocols must rebuild it
      by state transfer),
    - per-node {b gray failure} ({!degrade_node}: extra processing
      delay and loss on all of a node's links at once, while the node
      stays nominally up and reachable).

    The paper assumes corrupted messages are discarded by checksums, so
    corruption is modelled as loss. All protocol messages must carry any
    identification the protocol needs (the network never invents
    metadata beyond the sender id). *)

type 'msg t

type fault_model = {
  loss : float;        (** per-message drop probability *)
  duplicate : float;   (** probability a message is delivered twice *)
  jitter_ms : float;   (** extra delay uniform in [0, jitter_ms] *)
}

val no_faults : fault_model

val create :
  Dq_sim.Engine.t ->
  Topology.t ->
  ?faults:fault_model ->
  classify:('msg -> string) ->
  ?size_of:('msg -> int) ->
  unit ->
  'msg t
(** [classify] labels each message for {!stats} accounting;
    [size_of] (optional) estimates its wire size in bytes for
    bandwidth accounting. *)

val engine : 'msg t -> Dq_sim.Engine.t

val topology : 'msg t -> Topology.t

val stats : 'msg t -> Dq_telemetry.Metrics.t
(** The network's always-on message accounting (Figure 9 of the
    paper): every message accepted by {!send} is counted per label,
    remote and local (src = dst) deliveries apart. It is fed directly,
    so the counts do not depend on whether a telemetry sink is
    attached. *)

val set_faults : 'msg t -> fault_model -> unit

val set_service_time : 'msg t -> ms:float -> unit
(** Per-message processing time at every node (default 0): a delivered
    message occupies its destination for [ms] of virtual time, FIFO, so
    nodes saturate under load. Response-time experiments in the paper
    assume constant processing delay; the queueing model supports load
    studies beyond it. *)

val register : 'msg t -> node:int -> (src:int -> 'msg -> unit) -> unit
(** Install the message handler for [node]. At most one handler per
    node; registering again replaces it (used by recovery). *)

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Fire-and-forget. Counted in {!stats} even if subsequently lost
    (the sender did transmit it); dropped silently if the sender is
    crashed, the destination is crashed at delivery time, the link is
    partitioned or cut in the [src -> dst] direction, or the (global or
    per-link) fault model loses it. *)

(** {2 Crashes: fail-stop and amnesia} *)

val crash : 'msg t -> int -> unit
(** Take a node down, fail-stop: on recovery its durable state is
    intact. Idempotent. Pending timers created with {!timer} are
    invalidated. *)

val crash_amnesia : 'msg t -> int -> unit
(** Take a node down {e and wipe its disk}: the recovery notification
    carries [wiped:true], telling protocol layers that state they
    treated as durable is gone and must be rebuilt (by state transfer
    from peers). Calling it on an already-down node still wipes; a
    fail-stop crash after an unrecovered amnesia crash keeps the wipe
    pending. *)

val recover : 'msg t -> int -> unit
(** Bring a node back up (a fresh incarnation). Idempotent. *)

val is_up : 'msg t -> int -> bool

val on_status_change : 'msg t -> node:int -> (up:bool -> wiped:bool -> unit) -> unit
(** Register a callback invoked after each crash/recovery of [node]
    (protocols use it to reset volatile state on recovery). On a
    down-notification [wiped] says the crash was an amnesia crash; on
    an up-notification it says the outage the node is returning from
    included a wipe, so recovery must not trust pre-crash durable
    state. *)

(** {2 Gray failure: per-node degradation} *)

val degrade_node : 'msg t -> int -> delay_ms:float -> loss:float -> unit
(** Mark a node gray-failed: every message to {e or} from it suffers
    [delay_ms] extra delivery delay and is lost with (independently
    composed) probability [loss], on top of the link's fault model.
    The node stays up and {!reachable} is unaffected — it is slow and
    lossy, not partitioned. Replaces any previous degradation of the
    node. In manual-delivery mode the extra loss does not apply (the
    controller owns nondeterminism), matching probabilistic link
    faults. *)

val clear_degrade : 'msg t -> int -> unit
(** Restore a degraded node to healthy. Idempotent. Not cleared by
    {!heal} (like per-link fault overrides, degradation models node
    quality rather than a connectivity outage). *)

val degraded : 'msg t -> int -> (float * float) option
(** [(delay_ms, loss)] if the node is currently degraded. *)

(** {2 Node-scoped timers} *)

val timer : 'msg t -> node:int -> delay_ms:float -> (unit -> unit) -> Dq_sim.Engine.handle
(** Like {!Dq_sim.Engine.schedule}, but the action is skipped if [node]
    is down at expiry or has crashed (even transiently) since the timer
    was created. *)

(** {2 Manual delivery (schedule exploration)} *)

val set_manual : 'msg t -> bool -> unit
(** In manual mode, sent messages are not scheduled for timed delivery:
    they accumulate in a pending pool, and a test controller decides
    the delivery order with {!pending} / {!deliver_pending} /
    {!drop_pending}. Loss/duplication/jitter do not apply (the
    controller owns the nondeterminism); partitions, one-way cuts and
    crashes do. Timers are unaffected. Used by {i schedule
    exploration}, which checks protocol correctness under message
    orderings the delay matrix could never produce. *)

val pending : 'msg t -> (int * int * 'msg) list
(** The undelivered sends, oldest first, as (src, dst, msg). *)

val deliver_pending : 'msg t -> int -> unit
(** Deliver the i-th pending message now (synchronously). Out-of-range
    indices raise [Invalid_argument]. Crashed destinations, partitioned
    pairs and cut links drop the message instead. *)

val drop_pending : 'msg t -> int -> unit
(** Remove the i-th pending message without delivering it. *)

(** {2 Partitions and directed link faults} *)

val partition : 'msg t -> int list list -> unit
(** [partition net groups] splits the network: messages flow only
    between nodes of the same group. Nodes absent from every group form
    an implicit final group. Replaces any previous partition. *)

val heal : 'msg t -> unit
(** Remove the partition, every one-way cut, and stop all link
    flapping. Per-link fault overrides are {e not} cleared (they model
    link quality, not a transient outage); use {!set_link_faults} with
    [None] to drop them. *)

val cut : 'msg t -> src:int -> dst:int -> unit
(** Sever the directed link [src -> dst]: messages sent that way are
    dropped while the reverse direction keeps working (one-way link
    failure). Idempotent; independent of any group partition. *)

val uncut : 'msg t -> src:int -> dst:int -> unit
(** Restore a severed directed link. Idempotent. *)

val uncut_all : 'msg t -> unit

val is_cut : 'msg t -> src:int -> dst:int -> bool

val set_link_faults : 'msg t -> src:int -> dst:int -> fault_model option -> unit
(** Override the fault model on the directed link [src -> dst]
    ([None] reverts the link to the global model). Applies to loss,
    duplication and jitter of subsequent sends on that link. *)

val link_faults : 'msg t -> src:int -> dst:int -> fault_model option

val flap_link :
  'msg t -> src:int -> dst:int -> up_ms:float -> down_ms:float -> until_ms:float -> unit
(** Flap the directed link: available for [up_ms], severed for
    [down_ms], repeating until absolute virtual time [until_ms], after
    which the link is restored. A later [flap_link] on the same link
    supersedes the running schedule; {!heal} stops all flapping. *)

val reachable : 'msg t -> src:int -> dst:int -> bool
(** Whether a message sent now from [src] would cross the partition
    and any one-way cut — direction-aware: [reachable ~src:a ~dst:b]
    and [reachable ~src:b ~dst:a] may differ. Ignores crashes and
    probabilistic faults. *)

(** {2 Message-type-erased control}

    Fault orchestration (the nemesis layer) operates on clusters of any
    protocol, whose networks carry different message types. [control]
    packages the fault-injection surface of a network with the message
    type erased so one orchestrator drives them all. *)

type control = {
  c_nodes : int list;
  c_partition : int list list -> unit;
  c_heal : unit -> unit;
  c_cut : src:int -> dst:int -> unit;
  c_uncut : src:int -> dst:int -> unit;
  c_set_link_faults : src:int -> dst:int -> fault_model option -> unit;
  c_set_faults : fault_model -> unit;
  c_flap_link : src:int -> dst:int -> up_ms:float -> down_ms:float -> until_ms:float -> unit;
  c_crash : int -> unit;
  c_crash_amnesia : int -> unit;
  c_recover : int -> unit;
  c_degrade_node : int -> delay_ms:float -> loss:float -> unit;
  c_clear_degrade : int -> unit;
  c_is_up : int -> bool;
  c_reachable : src:int -> dst:int -> bool;
}

val control : 'msg t -> control
