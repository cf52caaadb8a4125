module Event = Dq_telemetry.Event

type t = {
  mutable events : int;
  mutable msgs_remote : int;
  mutable msgs_local : int;
  mutable msgs_dropped : int;
  mutable read_hits : int;
  mutable read_misses : int;
  mutable inval_through : int;
  mutable inval_suppressed : int;
  mutable inval_delayed : int;
  mutable leases_granted : int;
  mutable leases_expired : int;
  mutable rpc_rounds : int;
  mutable rpc_retries : int;
  mutable rpc_give_ups : int;
  mutable op_timeouts : int;
  mutable op_give_ups : int;
  mutable recoveries : int;
  mutable recovery_bytes : int;
  mutable recovery_ms : float;
}

let create () =
  {
    events = 0;
    msgs_remote = 0;
    msgs_local = 0;
    msgs_dropped = 0;
    read_hits = 0;
    read_misses = 0;
    inval_through = 0;
    inval_suppressed = 0;
    inval_delayed = 0;
    leases_granted = 0;
    leases_expired = 0;
    rpc_rounds = 0;
    rpc_retries = 0;
    rpc_give_ups = 0;
    op_timeouts = 0;
    op_give_ups = 0;
    recoveries = 0;
    recovery_bytes = 0;
    recovery_ms = 0.;
  }

let sink t ~time_ms:_ (event : Event.t) =
  t.events <- t.events + 1;
  match event with
  | Msg_sent { local = true; _ } -> t.msgs_local <- t.msgs_local + 1
  | Msg_sent { local = false; _ } -> t.msgs_remote <- t.msgs_remote + 1
  | Msg_dropped _ -> t.msgs_dropped <- t.msgs_dropped + 1
  | Cache_read { hit = true; _ } -> t.read_hits <- t.read_hits + 1
  | Cache_read { hit = false; _ } -> t.read_misses <- t.read_misses + 1
  | Inval_through _ -> t.inval_through <- t.inval_through + 1
  | Inval_suppressed _ -> t.inval_suppressed <- t.inval_suppressed + 1
  | Inval_delayed _ -> t.inval_delayed <- t.inval_delayed + 1
  | Lease_granted _ -> t.leases_granted <- t.leases_granted + 1
  | Lease_expired _ -> t.leases_expired <- t.leases_expired + 1
  | Rpc_round { round; _ } ->
    t.rpc_rounds <- t.rpc_rounds + 1;
    if round > 0 then t.rpc_retries <- t.rpc_retries + 1
  | Rpc_give_up _ -> t.rpc_give_ups <- t.rpc_give_ups + 1
  | Op_timeout _ -> t.op_timeouts <- t.op_timeouts + 1
  | Op_give_up _ -> t.op_give_ups <- t.op_give_ups + 1
  | Recovery_done { bytes; duration_ms; _ } ->
    t.recoveries <- t.recoveries + 1;
    t.recovery_bytes <- t.recovery_bytes + bytes;
    t.recovery_ms <- t.recovery_ms +. duration_ms
  | Msg_delivered _ | Op_start _ | Op_complete _ | Op_served _ | Epoch_advance _ | Link_cut _
  | Link_uncut _ | Node_crash _ | Node_wipe _ | Node_recover _ | Recovery_start _
  | Fault_injected _ | Clock_skew _ | Span_begin _ | Span_end _ | Note _ ->
    ()

let add a b =
  {
    events = a.events + b.events;
    msgs_remote = a.msgs_remote + b.msgs_remote;
    msgs_local = a.msgs_local + b.msgs_local;
    msgs_dropped = a.msgs_dropped + b.msgs_dropped;
    read_hits = a.read_hits + b.read_hits;
    read_misses = a.read_misses + b.read_misses;
    inval_through = a.inval_through + b.inval_through;
    inval_suppressed = a.inval_suppressed + b.inval_suppressed;
    inval_delayed = a.inval_delayed + b.inval_delayed;
    leases_granted = a.leases_granted + b.leases_granted;
    leases_expired = a.leases_expired + b.leases_expired;
    rpc_rounds = a.rpc_rounds + b.rpc_rounds;
    rpc_retries = a.rpc_retries + b.rpc_retries;
    rpc_give_ups = a.rpc_give_ups + b.rpc_give_ups;
    op_timeouts = a.op_timeouts + b.op_timeouts;
    op_give_ups = a.op_give_ups + b.op_give_ups;
    recoveries = a.recoveries + b.recoveries;
    recovery_bytes = a.recovery_bytes + b.recovery_bytes;
    recovery_ms = a.recovery_ms +. b.recovery_ms;
  }
