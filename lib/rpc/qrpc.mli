(** QRPC — quorum-based remote procedure call (paper, Section 2).

    [replies = QRPC(system, READ/WRITE, request)]: send the request to
    enough nodes of a quorum system, collect replies until they contain
    the specified quorum, retransmitting to a freshly selected random
    quorum on timeout with an exponentially increasing interval. This
    mirrors the paper's "simple prototype implementation", including its
    preference for the local node when it is a member of the system. *)

type quorum_mode = Read | Write

type 'rep t

val call :
  timer:(delay_ms:float -> (unit -> unit) -> Dq_sim.Engine.handle) ->
  rng:Dq_util.Rng.t ->
  system:Dq_quorum.Quorum_system.t ->
  mode:quorum_mode ->
  send:(int -> unit) ->
  on_quorum:((int * 'rep) list -> unit) ->
  ?prefer:int ->
  ?strategy:Dq_quorum.Strategy.t ->
  ?timeout_ms:float ->
  ?backoff:float ->
  ?max_rounds:int ->
  ?on_give_up:(unit -> unit) ->
  ?bus:Dq_telemetry.Bus.t ->
  ?node:int ->
  ?tag:string ->
  unit ->
  'rep t
(** [bus]/[node]/[tag] attribute per-round telemetry (see
    {!Retry.start}). [send dst] must transmit the request (with whatever rpc id the
    caller needs to route the reply back via {!deliver}). [on_quorum]
    fires exactly once, with one (node, reply) pair per responder — if a
    node replied several times (retransmission, duplication), the latest
    reply wins. [prefer] (typically the calling node itself) is always
    included in the contacted set when it is a member of the system.
    [strategy] selects the first-round quorum: omitted (or default), a
    random quorum is drawn and [prefer] swapped into it, the exact RNG
    stream of the paper's prototype; an explicit strategy (see
    {!Dq_quorum.Strategy.explicit}) is sampled as-is — its distribution
    {e is} the policy, so [prefer] does not rewrite the choice.
    Retransmission rounds always escalate to all members regardless of
    strategy. *)

val deliver : 'rep t -> src:int -> 'rep -> unit
(** Record a reply. Replies from nodes outside the system are ignored;
    replies after completion are ignored. *)

val cancel : 'rep t -> unit

val is_done : 'rep t -> bool

val replies : 'rep t -> (int * 'rep) list
(** Replies received so far. *)

val pick_read_targets :
  ?strategy:Dq_quorum.Strategy.t ->
  rng:Dq_util.Rng.t ->
  system:Dq_quorum.Quorum_system.t ->
  prefer:int ->
  unit ->
  int list
(** The target-selection policy alone (a random minimal read quorum,
    always preferring [prefer] when it is a member; an explicit
    [strategy] is sampled verbatim instead) — for callers that run their
    own retry loop, like the DQVL ensure-condition-C variation. *)
