open Dq_storage
module Qs = Dq_quorum.Quorum_system
module Net = Dq_net.Net
module Clock = Dq_sim.Clock

(* Per-object durable state: the stored version, the logical clock of
   the last write at the time of the last lease grant (lastReadLC), and
   the highest acknowledged invalidation per OQS node (lastAckLC).
   The per-node arrays are indexed by node id and stay empty until the
   first entry is written. *)
type obj_state = {
  mutable value : Versioned.t;
  mutable last_read : Lc.t;
  mutable acks : Lc.t array; (* [Lc.zero]: nothing acknowledged *)
  mutable grants : float array;
      (* per OQS node: local-clock expiry of the last object lease
         granted to it ([neg_infinity]: none); only consulted when
         object leases are finite *)
}

(* Per (volume, OQS node) lease state. [barrier] records the highest
   logical clock discarded by an epoch advance: the epoch bump makes the
   peer treat all objects of the volume as invalid, so any invalidation
   at or below [barrier] counts as delivered. *)
type vol_peer = {
  mutable expires : float;
  mutable epoch : int;
  mutable granted : bool; (* any lease granted since this record was created *)
  mutable barrier : Lc.t;
  delayed : (Key.t, Lc.t) Hashtbl.t;
}

(* State-transfer progress after an amnesia crash. Durable on purpose: a
   fail-stop crash in the middle of a sync resumes at the same cursor
   (the merged objects really are on disk), while a second amnesia crash
   wipes this record along with everything else and starts over. *)
type sync_progress = {
  session : int;       (* distinguishes chunks of superseded syncs *)
  started_ms : float;  (* engine time of the Recovery_start *)
  mutable cursor : int;     (* next volume chunk to fetch *)
  mutable max_volume : int; (* highest volume any responder has state for *)
  mutable bytes : int;
  mutable objects : int;
}

type durable = {
  mutable global_lc : Lc.t;
  objects : (Key.t, obj_state) Obj_map.t;
  vol_peers : (int, vol_peer option array) Obj_map.t; (* volume -> per OQS node id *)
  mutable wiped : bool; (* this replica lost its durable state at least once *)
  mutable sync : sync_progress option; (* Some = the node is in [Syncing] *)
}

(* The volatile side of a state transfer: the retransmission loop and
   the peers that answered the current chunk. Rebuilt on every
   recovery (the incarnation guard kills the previous loop's timers). *)
type sync_run = { mutable loop : Dq_rpc.Retry.t option; mutable replied : int list }

(* A write loop still settling, with the (front end, op) whose
   [Iqs_write_req] started it: a retransmitted copy of that request
   re-drives this loop instead of starting another. *)
type write_loop = { w_src : int; w_op : int; w_loop : Dq_rpc.Retry.t }

type t = {
  net : Message.t Net.t;
  bus : Dq_telemetry.Bus.t;
  clock : Clock.t;
  config : Config.t;
  me : int;
  n_nodes : int; (* length of every per-node array *)
  durable : durable;
  mutable loops : (Key.t, write_loop list ref) Hashtbl.t;
  mutable next_session : int;
  mutable syncing : sync_run option;
}

let subscribed t = Dq_telemetry.Bus.subscribed t.bus

let emit t ev = Dq_telemetry.Bus.emit t.bus ev

let fresh_obj _key =
  { value = Versioned.initial; last_read = Lc.zero; acks = [||]; grants = [||] }

let fresh_vol_peer () =
  {
    expires = neg_infinity;
    epoch = 0;
    granted = false;
    barrier = Lc.zero;
    delayed = Hashtbl.create 8;
  }

let create ~net ~clock ~config ~me =
  let n_nodes = Dq_net.Topology.n_nodes (Net.topology net) in
  {
    net;
    bus = Dq_sim.Engine.telemetry (Net.engine net);
    clock;
    config;
    me;
    n_nodes;
    durable =
      {
        global_lc = Lc.zero;
        objects = Obj_map.of_key_default ~default:fresh_obj;
        vol_peers = Obj_map.of_int_default ~default:(fun _ -> Array.make n_nodes None);
        wiped = false;
        sync = None;
      };
    loops = Hashtbl.create 16;
    next_session = 0;
    syncing = None;
  }

let obj t key = Obj_map.get t.durable.objects key

(* One volume's lease state for every OQS node, found once per check. *)
let vol_peers t volume = Obj_map.get t.durable.vol_peers volume

let peer_in peers j =
  match peers.(j) with
  | Some vp -> vp
  | None ->
    let vp = fresh_vol_peer () in
    peers.(j) <- Some vp;
    vp

let vol_peer t ~volume ~oqs = peer_in (vol_peers t volume) oqs

(* Without materializing anything. *)
let find_vol_peer t ~volume ~oqs =
  match Obj_map.find_opt t.durable.vol_peers volume with
  | Some peers -> peers.(oqs)
  | None -> None

let ack_of o j = if j < Array.length o.acks then o.acks.(j) else Lc.zero

let record_ack t key j lc =
  let o = obj t key in
  if Array.length o.acks = 0 then o.acks <- Array.make t.n_nodes Lc.zero;
  o.acks.(j) <- Lc.max o.acks.(j) lc

let send t dst msg = Net.send t.net ~src:t.me ~dst msg

let now t = Clock.now t.clock

(* --- delayed invalidations ------------------------------------------- *)

(* True when the queued (or epoch-subsumed) invalidations for [key] at
   peer [j] cover logical clock [wlc]. *)
let delayed_covers vp key wlc =
  Lc.(vp.barrier >= wlc)
  ||
  match Hashtbl.find vp.delayed key with
  | lc -> Lc.(lc >= wlc)
  | exception Not_found -> false

let enqueue_delayed t vp ~peer ~volume key wlc =
  let lc =
    match Hashtbl.find_opt vp.delayed key with
    | Some old -> Lc.max old wlc
    | None -> wlc
  in
  Hashtbl.replace vp.delayed key lc;
  if subscribed t then
    emit t
      (Dq_telemetry.Event.Inval_delayed { node = t.me; peer; key = Key.to_string key });
  if Hashtbl.length vp.delayed > t.config.max_delayed then begin
    (* Bound the queue with an epoch advance (paper: garbage collection
       of delayed invalidations): the peer's next renewal carries a new
       epoch, invalidating every object lease of the volume at once. *)
    Hashtbl.iter (fun _ lc -> vp.barrier <- Lc.max vp.barrier lc) vp.delayed;
    Hashtbl.reset vp.delayed;
    vp.epoch <- vp.epoch + 1;
    if subscribed t then
      emit t
        (Dq_telemetry.Event.Epoch_advance { node = t.me; peer; volume; epoch = vp.epoch })
  end

(* --- write processing ------------------------------------------------ *)

(* Is peer [j] unable to read any version of [key] older than [wlc]?
   May enqueue a delayed invalidation as a side effect (case "delay"). *)
(* With finite object leases, a peer whose lease on [key] has lapsed
   (or was never granted) cannot serve the object at all - no
   invalidation of any kind is needed (paper footnote 4). *)
let object_lease_lapsed t o j ~now =
  match t.config.object_lease_ms with
  | None -> false
  | Some _ -> j >= Array.length o.grants || now > o.grants.(j)

(* [o] is [key]'s state and [peers] its volume's lease state (empty
   without volume leases), both looked up once by the caller, as is
   [now], the local clock: virtual time stands still within a handler,
   so one read serves every peer. *)
let peer_settled t o peers ~now ~key ~wlc j =
  let ack = ack_of o j in
  Lc.(ack > o.last_read) (* suppress: no valid callback at j *)
  || Lc.(ack >= wlc) (* j acknowledged this (or a newer) invalidation *)
  || object_lease_lapsed t o j ~now
  || t.config.use_volume_leases
     &&
     let vp = peer_in peers j in
     now > vp.expires
     && (delayed_covers vp key wlc
        || begin
             enqueue_delayed t vp ~peer:j ~volume:(Key.volume key) key wlc;
             delayed_covers vp key wlc
           end)

let key_peers t key = if t.config.use_volume_leases then vol_peers t (Key.volume key) else [||]

(* Every member is evaluated, in member order, as [Qs.is_write_quorum]
   does for a counting system: [peer_settled] may queue a delayed
   invalidation. *)
let rec count_settled t o peers ~now ~key ~wlc members n =
  match members with
  | [] -> n
  | j :: rest ->
    let n = if peer_settled t o peers ~now ~key ~wlc j then n + 1 else n in
    count_settled t o peers ~now ~key ~wlc rest n

(* [o] and [peers] are [key]'s state, as for [peer_settled]. *)
let owq_invalid t o peers ~key ~wlc =
  let now = now t in
  let oqs = t.config.oqs in
  match Qs.counting_thresholds oqs with
  | Some (_, write) -> count_settled t o peers ~now ~key ~wlc (Qs.members oqs) 0 >= write
  | None -> Qs.is_write_quorum oqs ~present:(peer_settled t o peers ~now ~key ~wlc)

let register_loop t key loop =
  match Hashtbl.find_opt t.loops key with
  | Some loops -> loops := loop :: !loops
  | None -> Hashtbl.add t.loops key (ref [ loop ])

let unregister_loop t key loop =
  match Hashtbl.find_opt t.loops key with
  | Some loops ->
    loops := List.filter (fun w -> w.w_loop != loop) !loops;
    (match !loops with [] -> Hashtbl.remove t.loops key | _ :: _ -> ())
  | None -> ()

let poke_loops t key =
  match Hashtbl.find_opt t.loops key with
  | Some loops -> List.iter (fun w -> Dq_rpc.Retry.poke w.w_loop) !loops
  | None -> ()

let find_loop t key ~src ~op =
  match Hashtbl.find_opt t.loops key with
  | Some loops -> List.find_opt (fun w -> w.w_src = src && w.w_op = op) !loops
  | None -> None

(* Drive the OQS write quorum to a state where it cannot serve any
   version of [key] older than [wlc], then call [on_done]. [o] and
   [peers] are [key]'s state: the loop cannot outlive them, since a
   crash that wipes them also kills its timers and drops [t.loops].
   [src] and [op] name the write request the loop settles. *)
let ensure_owq_invalid t o peers ~src ~op ~key ~wlc ~on_done =
  let loop_cell = ref None in
  (* The lease-expiry re-checks armed so far; cancelled when the loop
     settles, as they could only poke a finished loop. *)
  let rechecks = ref [] in
  let poke_self () =
    match !loop_cell with Some loop -> Dq_rpc.Retry.poke loop | None -> ()
  in
  let attempt ~round:_ =
    let now = now t in
    let inval_lc = Lc.max wlc o.value.lc in
    let visit j =
      if not (peer_settled t o peers ~now ~key ~wlc j) then begin
        send t j (Message.Inval { key; lc = inval_lc });
        (* If j's lease expires before it acknowledges (e.g. j crashed),
           re-evaluate right after expiry so the write blocks for at
           most the lease duration. *)
        if t.config.use_volume_leases then begin
          let vp = peer_in peers j in
          if vp.expires > now then begin
            let delay_ms = Clock.delay_until t.clock vp.expires +. 1. in
            rechecks := Net.timer t.net ~node:t.me ~delay_ms poke_self :: !rechecks
          end
        end
      end
    in
    List.iter visit (Qs.members t.config.oqs)
  in
  let complete () = owq_invalid t o peers ~key ~wlc in
  let finish whom () =
    List.iter Dq_sim.Engine.cancel !rechecks;
    (match !loop_cell with Some loop -> unregister_loop t key loop | None -> ());
    whom ()
  in
  let loop =
    Dq_rpc.Retry.start
      ~timer:(fun ~delay_ms action -> Net.timer t.net ~node:t.me ~delay_ms action)
      ~attempt ~complete
      ~on_complete:(finish on_done)
      ~timeout_ms:t.config.retry_timeout_ms ~backoff:t.config.retry_backoff ~bus:t.bus
      ~node:t.me ~tag:"iqs.owq_inval" ()
  in
  if not (Dq_rpc.Retry.is_done loop) then begin
    loop_cell := Some loop;
    register_loop t key { w_src = src; w_op = op; w_loop = loop }
  end

let handle_write t ~src ~op ~key ~value ~lc =
  let o = obj t key in
  if Lc.(lc > o.value.lc) then begin
    o.value <- Versioned.make ~value ~lc;
    t.durable.global_lc <- Lc.max t.durable.global_lc lc
  end;
  let peers = key_peers t key in
  let suppressed = owq_invalid t o peers ~key ~wlc:lc in
  if subscribed t then
    emit t
      (if suppressed then
         Dq_telemetry.Event.Inval_suppressed { node = t.me; key = Key.to_string key }
       else
         Dq_telemetry.Event.Inval_through
           { node = t.me; peer = src; key = Key.to_string key });
  match find_loop t key ~src ~op with
  | Some w -> Dq_rpc.Retry.rerun w.w_loop
  | None ->
    ensure_owq_invalid t o peers ~src ~op ~key ~wlc:lc ~on_done:(fun () ->
        send t src (Message.Iqs_write_ack { op; key; lc }))

(* --- lease grants ----------------------------------------------------- *)

let obj_grant t ~key ~requester ~t0 =
  let o = obj t key in
  o.last_read <- Lc.max o.last_read o.value.lc;
  let epoch =
    if t.config.use_volume_leases then
      (vol_peer t ~volume:(Key.volume key) ~oqs:requester).epoch
    else 0
  in
  let lease_ms =
    match t.config.object_lease_ms with
    | Some lease ->
      if Array.length o.grants = 0 then o.grants <- Array.make t.n_nodes neg_infinity;
      o.grants.(requester) <- now t +. lease;
      lease
    | None -> infinity
  in
  {
    Message.g_key = key;
    g_epoch = epoch;
    g_lc = o.value.lc;
    g_value = o.value.value;
    g_lease_ms = lease_ms;
    g_t0 = t0;
  }

let handle_obj_renew t ~src ~key ~t0 =
  let grant = obj_grant t ~key ~requester:src ~t0 in
  send t src (Message.Obj_renew_reply { grant })

(* Grant one volume's lease and collect its delayed invalidations
   (shared by the single and batched renewal paths). [holder_epoch] is
   the epoch the requester currently caches for the volume: a replica
   that lost its durable state restarts epochs at 0, so its first grant
   of each volume must jump strictly above whatever the holder reports —
   the bump makes every pre-wipe object lease of the volume invalid at
   the holder (its cached epoch no longer matches), closing the window
   where wiped callback bookkeeping could let a stale version survive. *)
let grant_volume t ~src ~holder_epoch volume =
  let vp = vol_peer t ~volume ~oqs:src in
  if holder_epoch >= vp.epoch && t.durable.wiped && not vp.granted then begin
    vp.epoch <- holder_epoch + 1;
    if subscribed t then
      emit t
        (Dq_telemetry.Event.Epoch_advance { node = t.me; peer = src; volume; epoch = vp.epoch })
  end
  else if holder_epoch > vp.epoch then begin
    (* A holder can only learn epochs from our own grants, so this means
       state loss we were not told about; jump past it to stay safe. *)
    vp.epoch <- holder_epoch + 1;
    if subscribed t then
      emit t
        (Dq_telemetry.Event.Epoch_advance { node = t.me; peer = src; volume; epoch = vp.epoch })
  end;
  vp.granted <- true;
  vp.expires <- now t +. t.config.volume_lease_ms;
  let delayed = Hashtbl.fold (fun k lc acc -> (k, lc) :: acc) vp.delayed [] in
  if subscribed t then
    emit t
      (Dq_telemetry.Event.Lease_granted
         {
           node = t.me;
           peer = src;
           volume;
           lease_ms = t.config.volume_lease_ms;
           epoch = vp.epoch;
         });
  (vp.epoch, delayed)

let handle_vols_renew t ~src ~volumes ~t0 =
  let grants =
    List.map
      (fun (volume, holder_epoch) ->
        let epoch, delayed = grant_volume t ~src ~holder_epoch volume in
        (volume, epoch, delayed))
      volumes
  in
  send t src
    (Message.Vols_renew_reply { t0; lease_ms = t.config.volume_lease_ms; grants })

let handle_vol_renew t ~src ~volume ~t0 ~want ~holder_epoch =
  let epoch, delayed = grant_volume t ~src ~holder_epoch volume in
  let grant = Option.map (fun key -> obj_grant t ~key ~requester:src ~t0) want in
  send t src
    (Message.Vol_renew_reply
       { volume; lease_ms = t.config.volume_lease_ms; epoch; t0; delayed; grant })

let handle_vol_renew_ack t ~src ~volume ~upto =
  let vp = vol_peer t ~volume ~oqs:src in
  let cleared =
    Hashtbl.fold
      (fun key lc acc -> if Lc.(lc <= upto) then (key, lc) :: acc else acc)
      vp.delayed []
  in
  List.iter
    (fun (key, lc) ->
      Hashtbl.remove vp.delayed key;
      (* The peer has applied these invalidations (it acknowledged the
         renewal reply that carried them), so they count as acked. *)
      record_ack t key src lc;
      poke_loops t key)
    cleared

let handle_inval_ack t ~src ~key ~lc =
  record_ack t key src lc;
  poke_loops t key

(* --- amnesia recovery: state transfer ---------------------------------- *)

let engine_now t = Dq_sim.Engine.now (Net.engine t.net)

(* After a wipe, even a fully synced replica must not vote (or grant)
   until every lease it might have granted before the wipe has expired
   at its holder: the wiped grant table would otherwise let
   [peer_settled] treat a still-valid pre-wipe lease as lapsed and ack
   a write whose overwritten version that holder can still serve. The
   bound is the longest lease duration stretched by drift on both
   sides, plus slack for the holder's send-time base point. Pure
   callback configurations (no leases) need no quarantine: empty ack
   tables already make every peer look possibly-valid, which is the
   conservative direction. *)
let quarantine_ms t =
  let vol = if t.config.use_volume_leases then t.config.volume_lease_ms else 0. in
  let obj = match t.config.object_lease_ms with Some l -> l | None -> 0. in
  let lease = Float.max vol obj in
  if lease > 0. then (lease *. (1. +. (2. *. t.config.max_drift))) +. 250. else 0.

let finish_sync t (s : sync_progress) =
  t.durable.sync <- None;
  t.syncing <- None;
  if subscribed t then
    emit t
      (Dq_telemetry.Event.Recovery_done
         {
           node = t.me;
           bytes = s.bytes;
           objects = s.objects;
           duration_ms = engine_now t -. s.started_ms;
         })

let start_sync t (s : sync_progress) =
  let run = { loop = None; replied = [] } in
  t.syncing <- Some run;
  let peers = List.filter (fun i -> i <> t.me) (Qs.members t.config.iqs) in
  let no_peers = match peers with [] -> true | _ :: _ -> false in
  let active_at = s.started_ms +. quarantine_ms t in
  let attempt ~round:_ =
    if s.cursor <= s.max_volume then
      List.iter
        (fun i ->
          if not (List.mem i run.replied) then
            send t i (Message.Sync_req { session = s.session; volume = s.cursor }))
        peers
  in
  let complete () =
    (no_peers || s.cursor > s.max_volume) && engine_now t >= active_at
  in
  let loop =
    Dq_rpc.Retry.start
      ~timer:(fun ~delay_ms action -> Net.timer t.net ~node:t.me ~delay_ms action)
      ~attempt ~complete
      ~on_complete:(fun () -> finish_sync t s)
      ~timeout_ms:t.config.retry_timeout_ms ~backoff:t.config.retry_backoff ~bus:t.bus
      ~node:t.me ~tag:"iqs.sync" ()
  in
  if not (Dq_rpc.Retry.is_done loop) then begin
    run.loop <- Some loop;
    (* Re-test completion right after the lease quarantine elapses — the
       transfer itself usually finishes well before it, and the retry
       loop's backed-off timer may otherwise fire much later. *)
    let wait = active_at -. engine_now t in
    if wait > 0. then
      ignore
        (Net.timer t.net ~node:t.me ~delay_ms:(wait +. 1.) (fun () ->
             Dq_rpc.Retry.poke loop))
  end

(* A read quorum of peers (not counting this node) answered the chunk:
   max-LC merge is monotone, so any read quorum intersects every write
   quorum that acknowledged a write and the merged state covers it. *)
let sync_quorum_done t replied =
  Qs.is_read_quorum t.config.iqs ~present:(fun i -> i <> t.me && List.mem i replied)

let handle_sync_resp t ~src ~session ~volume ~max_volume ~global_lc ~objects ~bytes =
  match (t.durable.sync, t.syncing) with
  | Some s, Some run
    when session = s.session && volume = s.cursor && not (List.mem src run.replied) ->
    run.replied <- src :: run.replied;
    s.bytes <- s.bytes + bytes;
    s.max_volume <- Stdlib.max s.max_volume max_volume;
    t.durable.global_lc <- Lc.max t.durable.global_lc global_lc;
    List.iter
      (fun (key, lc, value) ->
        let o = obj t key in
        if Lc.(lc > o.value.lc) then begin
          o.value <- Versioned.make ~value ~lc;
          s.objects <- s.objects + 1
        end)
      objects;
    if sync_quorum_done t run.replied then begin
      s.cursor <- s.cursor + 1;
      run.replied <- [];
      (* Request the next chunk immediately (or re-test completion). *)
      match run.loop with Some loop -> Dq_rpc.Retry.rerun loop | None -> ()
    end
  | _, _ -> () (* stale session, wrong chunk, or duplicate reply *)

let handle_sync_req t ~src ~session ~volume =
  let max_volume, objects =
    Obj_map.fold t.durable.objects ~init:(0, []) ~f:(fun key o (max_vol, acc) ->
        let v = Key.volume key in
        let max_vol = Stdlib.max max_vol v in
        let acc =
          if v = volume && Lc.(o.value.lc > zero) then
            (key, o.value.lc, o.value.value) :: acc
          else acc
        in
        (max_vol, acc))
  in
  send t src
    (Message.Sync_resp
       { session; volume; max_volume; global_lc = t.durable.global_lc; objects })

(* --- dispatch ---------------------------------------------------------- *)

let active_handle t ~src msg =
  match msg with
  | Message.Lc_read_req { op } ->
    send t src (Message.Lc_read_reply { op; lc = t.durable.global_lc })
  | Message.Iqs_write_req { op; key; value; lc } -> handle_write t ~src ~op ~key ~value ~lc
  | Message.Obj_renew_req { key; t0 } -> handle_obj_renew t ~src ~key ~t0
  | Message.Vol_renew_req { volume; t0; want; epoch } ->
    handle_vol_renew t ~src ~volume ~t0 ~want ~holder_epoch:epoch
  | Message.Vol_renew_ack { volume; upto } -> handle_vol_renew_ack t ~src ~volume ~upto
  | Message.Vols_renew_req { volumes; t0 } -> handle_vols_renew t ~src ~volumes ~t0
  | Message.Inval_ack { key; lc } -> handle_inval_ack t ~src ~key ~lc
  | Message.Sync_req { session; volume } -> handle_sync_req t ~src ~session ~volume
  | Message.Client_read_req _ | Message.Client_read_reply _ | Message.Client_write_req _
  | Message.Client_write_reply _ | Message.Oqs_read_req _ | Message.Oqs_read_reply _
  | Message.Lc_read_reply _ | Message.Iqs_write_ack _ | Message.Obj_renew_reply _
  | Message.Vol_renew_reply _ | Message.Vols_renew_reply _ | Message.Inval _
  | Message.Client_read_fail _ | Message.Client_write_fail _ | Message.Sync_resp _ ->
    ()

let handle t ~src msg =
  match t.durable.sync with
  | None -> active_handle t ~src msg
  | Some _ -> (
    (* Syncing: the replica neither votes in read or write quorums nor
       grants leases — it answers nothing but its own state transfer. *)
    match msg with
    | Message.Sync_resp { session; volume; max_volume; global_lc; objects } ->
      handle_sync_resp t ~src ~session ~volume ~max_volume ~global_lc ~objects
        ~bytes:(Message.size_of msg)
    | _ -> () [@dqr.lint.allow "R9"])

let on_recover t ~wiped =
  t.loops <- Hashtbl.create 16;
  t.syncing <- None;
  if wiped then begin
    (* Amnesia: everything this node called durable is gone. *)
    t.durable.global_lc <- Lc.zero;
    Obj_map.clear t.durable.objects;
    Obj_map.clear t.durable.vol_peers;
    t.durable.wiped <- true;
    t.next_session <- t.next_session + 1;
    t.durable.sync <-
      Some
        {
          session = t.next_session;
          started_ms = engine_now t;
          cursor = 0;
          max_volume = 0;
          bytes = 0;
          objects = 0;
        };
    if subscribed t then emit t (Dq_telemetry.Event.Recovery_start { node = t.me })
  end;
  match t.durable.sync with Some s -> start_sync t s | None -> ()

(* --- introspection ---------------------------------------------------- *)

let logical_clock t = t.durable.global_lc

let stored t key = (obj t key).value

let last_read_lc t key = (obj t key).last_read

let last_ack_lc t key ~oqs = ack_of (obj t key) oqs

let lease_expires t ~volume ~oqs =
  match find_vol_peer t ~volume ~oqs with Some vp -> vp.expires | None -> neg_infinity

let epoch t ~volume ~oqs =
  match find_vol_peer t ~volume ~oqs with Some vp -> vp.epoch | None -> 0

let delayed_count t ~volume ~oqs =
  match find_vol_peer t ~volume ~oqs with
  | Some vp -> Hashtbl.length vp.delayed
  | None -> 0

let local_time t = now t

let lease_valid_for t ~volume ~oqs =
  (not t.config.use_volume_leases)
  ||
  match find_vol_peer t ~volume ~oqs with Some vp -> vp.expires > now t | None -> false

(* Could this IQS node believe that [oqs] holds a valid callback on
   [key]? False only when the node has positive proof of invalidity
   (acknowledged invalidation newer than any grant, or a lapsed finite
   object lease). *)
let callback_possible t key ~oqs =
  let o = obj t key in
  (not Lc.(ack_of o oqs > o.last_read)) && not (object_lease_lapsed t o oqs ~now:(now t))

let active_write_loops t =
  Hashtbl.fold (fun _ loops acc -> acc + List.length !loops) t.loops 0

let is_syncing t = Option.is_some t.durable.sync

let was_wiped t = t.durable.wiped

let sync_progress t =
  match t.durable.sync with
  | Some s -> Some (s.cursor, s.bytes, s.objects)
  | None -> None
