type t =
  | Msg_sent of { src : int; dst : int; label : string; bytes : int; local : bool }
  | Msg_delivered of { src : int; dst : int; label : string }
  | Msg_dropped of { src : int; dst : int; label : string; reason : string }
  | Op_start of { op : int; client : int; kind : string; key : string }
  | Op_complete of {
      op : int;
      client : int;
      kind : string;
      start_ms : float;
      latency_ms : float;
    }
  | Op_served of {
      op : int;
      client : int;
      kind : string;
      key : string;
      lc_count : int;
      lc_node : int;
      start_ms : float;
    }
  | Op_timeout of { op : int; client : int; kind : string }
  | Op_give_up of { op : int; client : int; kind : string }
  | Lease_granted of { node : int; peer : int; volume : int; lease_ms : float; epoch : int }
  | Lease_expired of { node : int; peer : int; volume : int }
  | Inval_through of { node : int; peer : int; key : string }
  | Inval_suppressed of { node : int; key : string }
  | Inval_delayed of { node : int; peer : int; key : string }
  | Epoch_advance of { node : int; peer : int; volume : int; epoch : int }
  | Cache_read of { node : int; key : string; hit : bool }
  | Rpc_round of { node : int; tag : string; round : int }
  | Rpc_give_up of { node : int; tag : string; rounds : int }
  | Link_cut of { src : int; dst : int }
  | Link_uncut of { src : int; dst : int }
  | Node_crash of { node : int }
  | Node_wipe of { node : int }
  | Node_recover of { node : int }
  | Recovery_start of { node : int }
  | Recovery_done of { node : int; bytes : int; objects : int; duration_ms : float }
  | Fault_injected of { label : string }
  | Clock_skew of { node : int; skew : float }
  | Span_begin of { name : string; node : int }
  | Span_end of { name : string; node : int }
  | Note of { src : string; msg : string Lazy.t }

(* Kind slugs, indexed by [kind]: the one list of names, read by [name]
   and by sinks that count events in an array. *)
let kind_names =
  [|
    "msg_sent";
    "msg_delivered";
    "msg_dropped";
    "op_start";
    "op_complete";
    "op_served";
    "op_timeout";
    "op_give_up";
    "lease_granted";
    "lease_expired";
    "inval_through";
    "inval_suppressed";
    "inval_delayed";
    "epoch_advance";
    "read_hit";
    "read_miss";
    "rpc_round";
    "rpc_give_up";
    "link_cut";
    "link_uncut";
    "node_crash";
    "node_wipe";
    "node_recover";
    "recovery_start";
    "recovery_done";
    "fault_injected";
    "clock_skew";
    "span_begin";
    "span_end";
    "note";
  |]

let kinds = Array.length kind_names

let kind = function
  | Msg_sent _ -> 0
  | Msg_delivered _ -> 1
  | Msg_dropped _ -> 2
  | Op_start _ -> 3
  | Op_complete _ -> 4
  | Op_served _ -> 5
  | Op_timeout _ -> 6
  | Op_give_up _ -> 7
  | Lease_granted _ -> 8
  | Lease_expired _ -> 9
  | Inval_through _ -> 10
  | Inval_suppressed _ -> 11
  | Inval_delayed _ -> 12
  | Epoch_advance _ -> 13
  | Cache_read { hit; _ } -> if hit then 14 else 15
  | Rpc_round _ -> 16
  | Rpc_give_up _ -> 17
  | Link_cut _ -> 18
  | Link_uncut _ -> 19
  | Node_crash _ -> 20
  | Node_wipe _ -> 21
  | Node_recover _ -> 22
  | Recovery_start _ -> 23
  | Recovery_done _ -> 24
  | Fault_injected _ -> 25
  | Clock_skew _ -> 26
  | Span_begin _ -> 27
  | Span_end _ -> 28
  | Note _ -> 29

let kind_name k = kind_names.(k)

let name ev = kind_names.(kind ev)

let cat = function
  | Msg_sent _ | Msg_delivered _ | Msg_dropped _ -> "msg"
  | Op_start _ | Op_complete _ | Op_served _ | Op_timeout _ | Op_give_up _ -> "op"
  | Lease_granted _ | Lease_expired _ -> "lease"
  | Inval_through _ | Inval_suppressed _ | Inval_delayed _ | Epoch_advance _ -> "inval"
  | Cache_read _ -> "cache"
  | Rpc_round _ | Rpc_give_up _ -> "rpc"
  | Link_cut _ | Link_uncut _ | Node_crash _ | Node_wipe _ | Node_recover _
  | Recovery_start _ | Recovery_done _ | Fault_injected _ ->
    "fault"
  | Clock_skew _ -> "sim"
  | Span_begin _ | Span_end _ -> "span"
  | Note _ -> "note"

(* The node whose timeline the event belongs to (the Chrome-trace
   [tid]); -1 groups cluster-wide events (faults, notes) on one track. *)
let track = function
  | Msg_sent { src; _ } | Msg_dropped { src; _ } -> src
  | Msg_delivered { dst; _ } -> dst
  | Op_start { client; _ }
  | Op_complete { client; _ }
  | Op_served { client; _ }
  | Op_timeout { client; _ }
  | Op_give_up { client; _ } ->
    client
  | Lease_granted { node; _ }
  | Lease_expired { node; _ }
  | Inval_through { node; _ }
  | Inval_suppressed { node; _ }
  | Inval_delayed { node; _ }
  | Epoch_advance { node; _ }
  | Cache_read { node; _ }
  | Rpc_round { node; _ }
  | Rpc_give_up { node; _ }
  | Node_crash { node }
  | Node_wipe { node }
  | Node_recover { node }
  | Recovery_start { node }
  | Recovery_done { node; _ }
  | Clock_skew { node; _ }
  | Span_begin { node; _ }
  | Span_end { node; _ } ->
    node
  | Link_cut { src; _ } | Link_uncut { src; _ } -> src
  | Fault_injected _ | Note _ -> -1

let pp ppf = function
  | Msg_sent { src; dst; label; bytes; local } ->
    Format.fprintf ppf "%d -> %d %s (%d bytes%s)" src dst label bytes
      (if local then ", local" else "")
  | Msg_delivered { src; dst; label } -> Format.fprintf ppf "%d => %d %s" src dst label
  | Msg_dropped { src; dst; label; reason } ->
    Format.fprintf ppf "%d -x %d %s (%s)" src dst label reason
  | Op_start { op; client; kind; key } ->
    Format.fprintf ppf "op %d: client %d %s %s" op client kind key
  | Op_complete { op; client; kind; latency_ms; _ } ->
    Format.fprintf ppf "op %d: client %d %s done in %.1fms" op client kind latency_ms
  | Op_served { op; client; kind; key; lc_count; lc_node; _ } ->
    Format.fprintf ppf "op %d: client %d %s %s served lc=%d.%d" op client kind key lc_count
      lc_node
  | Op_timeout { op; client; kind } ->
    Format.fprintf ppf "op %d: client %d %s timed out" op client kind
  | Op_give_up { op; client; kind } ->
    Format.fprintf ppf "op %d: client %d %s gave up" op client kind
  | Lease_granted { node; peer; volume; lease_ms; epoch } ->
    Format.fprintf ppf "node %d: volume %d lease granted to %d (%.0fms, epoch %d)" node
      volume peer lease_ms epoch
  | Lease_expired { node; peer; volume } ->
    Format.fprintf ppf "node %d: volume %d lease from %d expired" node volume peer
  | Inval_through { node; peer; key } ->
    Format.fprintf ppf "node %d: write %s from %d -> write through" node key peer
  | Inval_suppressed { node; key } ->
    Format.fprintf ppf "node %d: write %s -> write suppress" node key
  | Inval_delayed { node; peer; key } ->
    Format.fprintf ppf "node %d: delayed invalidation %s queued for %d" node key peer
  | Epoch_advance { node; peer; volume; epoch } ->
    Format.fprintf ppf "node %d: volume %d epoch -> %d for peer %d" node volume epoch peer
  | Cache_read { node; key; hit } ->
    Format.fprintf ppf "node %d: read %s %s" node key (if hit then "hit" else "miss")
  | Rpc_round { node; tag; round } ->
    Format.fprintf ppf "node %d: %s round %d" node tag round
  | Rpc_give_up { node; tag; rounds } ->
    Format.fprintf ppf "node %d: %s gave up after %d rounds" node tag rounds
  | Link_cut { src; dst } -> Format.fprintf ppf "link %d -> %d cut" src dst
  | Link_uncut { src; dst } -> Format.fprintf ppf "link %d -> %d restored" src dst
  | Node_crash { node } -> Format.fprintf ppf "node %d crashed" node
  | Node_wipe { node } -> Format.fprintf ppf "node %d wiped (amnesia)" node
  | Node_recover { node } -> Format.fprintf ppf "node %d recovered" node
  | Recovery_start { node } -> Format.fprintf ppf "node %d: state-transfer sync started" node
  | Recovery_done { node; bytes; objects; duration_ms } ->
    Format.fprintf ppf "node %d: sync done (%d objects, %d bytes, %.1fms)" node objects
      bytes duration_ms
  | Fault_injected { label } -> Format.fprintf ppf "fault: %s" label
  | Clock_skew { node; skew } -> Format.fprintf ppf "node %d: clock skew -> %.2e" node skew
  | Span_begin { name; node } -> Format.fprintf ppf "node %d: %s begin" node name
  | Span_end { name; node } -> Format.fprintf ppf "node %d: %s end" node name
  | Note { src; msg } -> Format.fprintf ppf "[%s] %s" src (Lazy.force msg)
