open Dq_storage
module Qs = Dq_quorum.Quorum_system
module Net = Dq_net.Net
module Clock = Dq_sim.Clock

(* Per (volume, IQS node) lease state held by this OQS node. *)
type vol_from = { mutable epoch : int; mutable expires : float }

(* Per (object, IQS node) callback state. [expires] starts in the past
   and is advanced by each grant; infinite object leases (callbacks)
   grant an infinite expiry. *)
type obj_from = {
  mutable epoch : int;
  mutable lc : Lc.t;
  mutable valid : bool;
  mutable expires : float;
}

(* An in-progress "ensure condition C" loop with the readers awaiting it.
   [loop] is filled right after [Retry.start] returns. *)
type ensure = {
  mutable loop : Dq_rpc.Retry.t option;
  mutable waiters : (Versioned.t -> unit) list;
}

(* Lease state is kept per volume or key as one array over IQS node ids,
   whose entries are created on first use. *)
type cache = {
  vols : (int, vol_from option array) Obj_map.t;
  objs : (Key.t, obj_from option array) Obj_map.t;
  values : (Key.t, Versioned.t) Obj_map.t;
  touched_volumes : (int, unit) Hashtbl.t;
}

type t = {
  net : Message.t Net.t;
  bus : Dq_telemetry.Bus.t;
  clock : Clock.t;
  config : Config.t;
  rng : Dq_util.Rng.t;
  me : int;
  n_nodes : int; (* length of every per-node array *)
  mutable cache : cache;
  mutable ensuring : (Key.t, ensure) Hashtbl.t;
  renew_timers : (int * int, Dq_sim.Engine.handle) Hashtbl.t;
  mutable quiesced : bool;
}

let subscribed t = Dq_telemetry.Bus.subscribed t.bus

let emit t ev = Dq_telemetry.Bus.emit t.bus ev

let fresh_vol_from () = { epoch = 0; expires = neg_infinity }

let fresh_obj_from () = { epoch = 0; lc = Lc.zero; valid = false; expires = neg_infinity }

let fresh_cache n_nodes =
  let per_node _ = Array.make n_nodes None in
  {
    vols = Obj_map.of_int_default ~default:per_node;
    objs = Obj_map.of_key_default ~default:per_node;
    values = Obj_map.of_key_default ~default:(fun _ -> Versioned.initial);
    touched_volumes = Hashtbl.create 8;
  }

let create ~net ~clock ~config ~rng ~me =
  let n_nodes = Dq_net.Topology.n_nodes (Net.topology net) in
  {
    net;
    bus = Dq_sim.Engine.telemetry (Net.engine net);
    clock;
    config;
    rng;
    me;
    n_nodes;
    cache = fresh_cache n_nodes;
    ensuring = Hashtbl.create 16;
    renew_timers = Hashtbl.create 16;
    quiesced = false;
  }

let send t dst msg = Net.send t.net ~src:t.me ~dst msg

let now t = Clock.now t.clock

let entry fresh slots i =
  match slots.(i) with
  | Some e -> e
  | None ->
    let e = fresh () in
    slots.(i) <- Some e;
    e

let vol_in vols iqs = entry fresh_vol_from vols iqs

let obj_in objs iqs = entry fresh_obj_from objs iqs

let vols_of t volume = Obj_map.get t.cache.vols volume

let objs_of t key = Obj_map.get t.cache.objs key

let vol_from t ~volume ~iqs = vol_in (vols_of t volume) iqs

let obj_from t key ~iqs = obj_in (objs_of t key) iqs

(* [now] is the local clock, read once by the caller: virtual time
   stands still within a handler. *)
let volume_valid_at t vols ~now ~iqs =
  (not t.config.use_volume_leases) || (vol_in vols iqs).expires > now

let volume_valid_from t ~volume ~iqs = volume_valid_at t (vols_of t volume) ~now:(now t) ~iqs

(* [vols] and [objs] are the per-node state of [key]'s volume and of
   [key] itself. *)
let object_valid_at t vols objs ~now ~iqs =
  let o = obj_in objs iqs in
  o.valid
  && ((not t.config.use_volume_leases) || o.epoch = (vol_in vols iqs).epoch)
  && (Option.is_none t.config.object_lease_ms || o.expires > now)

let object_valid_from t key ~iqs =
  object_valid_at t (vols_of t (Key.volume key)) (objs_of t key) ~now:(now t) ~iqs

let valid_at t vols objs ~now iqs =
  volume_valid_at t vols ~now ~iqs && object_valid_at t vols objs ~now ~iqs

(* Every member is evaluated, in member order, as [Qs.is_read_quorum]
   does for a counting system: [valid_at] creates missing entries. *)
let rec count_valid t vols objs ~now members n =
  match members with
  | [] -> n
  | i :: rest -> count_valid t vols objs ~now rest (if valid_at t vols objs ~now i then n + 1 else n)

(* Condition C: some IQS read quorum from which everything is valid.
   [vols] and [objs] are the per-node state of the key's volume and of
   the key, looked up once for every member. *)
let locally_valid_in t vols objs =
  let now = now t in
  let iqs = t.config.iqs in
  match Qs.counting_thresholds iqs with
  | Some (read, _) -> count_valid t vols objs ~now (Qs.members iqs) 0 >= read
  | None -> Qs.is_read_quorum iqs ~present:(valid_at t vols objs ~now)

let is_locally_valid t key = locally_valid_in t (vols_of t (Key.volume key)) (objs_of t key)

let cached t key = Obj_map.get t.cache.values key

(* --- applying grants and invalidations -------------------------------- *)

let poke_ensure_loops t =
  (* Lease state is shared across objects (volumes), so any progress may
     complete any waiting read; poking all loops is cheap and simple.
     Collect first: a poke can complete a loop and mutate the table. *)
  let loops = Hashtbl.fold (fun _ e acc -> e.loop :: acc) t.ensuring [] in
  List.iter (function Some loop -> Dq_rpc.Retry.poke loop | None -> ()) loops

let apply_obj_grant t ~iqs (grant : Message.obj_grant) =
  let key = grant.g_key in
  let o = obj_from t key ~iqs in
  o.epoch <- Stdlib.max o.epoch grant.g_epoch;
  if Lc.(o.lc <= grant.g_lc) then begin
    o.lc <- grant.g_lc;
    o.valid <- true;
    (* Drift-compensated expiry from our own send time, as for volume
       leases; infinite lease durations yield an infinite expiry. *)
    o.expires <-
      Float.max o.expires (grant.g_t0 +. (grant.g_lease_ms *. (1. -. t.config.max_drift)))
  end;
  let current = cached t key in
  if Lc.(grant.g_lc >= current.lc) then
    Obj_map.set t.cache.values key (Versioned.make ~value:grant.g_value ~lc:grant.g_lc)

let apply_inval t ~iqs ~key ~lc =
  let o = obj_from t key ~iqs in
  if Lc.(o.lc < lc) then begin
    if subscribed t then
      emit t
        (Dq_telemetry.Event.Note
           {
             src = "dq.oqs";
             msg =
               lazy
                 (Format.asprintf "node %d: %a invalidated by %d at lc=%a" t.me Key.pp key
                    iqs Lc.pp lc);
           });
    o.lc <- lc;
    o.valid <- false
  end

(* Proactive volume-lease renewal: once this node holds a lease on a
   volume it keeps the lease fresh, so reads stay local (read hits).
   With [batch_renewals], a firing timer coalesces every touched volume
   whose lease from the same IQS node is due within the next half
   lease into one request, and re-arms the siblings' timers as loss
   fallbacks so only one batch per node pair is in flight. *)
let rec arm_renew_timer t ~volume ~iqs ~delay_ms =
  (match Hashtbl.find_opt t.renew_timers (volume, iqs) with
  | Some handle -> Dq_sim.Engine.cancel handle
  | None -> ());
  let handle =
    Net.timer t.net ~node:t.me ~delay_ms (fun () ->
        Hashtbl.remove t.renew_timers (volume, iqs);
        if not t.quiesced then proactive_fire t ~volume ~iqs)
  in
  Hashtbl.replace t.renew_timers (volume, iqs) handle

and proactive_fire t ~volume ~iqs =
  if t.config.batch_renewals then begin
    let within window v = (vol_from t ~volume:v ~iqs).expires <= now t +. window in
    if within t.config.renew_margin_ms volume then begin
      (* Renew siblings due within the next half lease slightly early:
         their expiries align, so later cycles need one batch. *)
      let window = t.config.renew_margin_ms +. (t.config.volume_lease_ms /. 2.) in
      let stale =
        Hashtbl.fold
          (fun v () acc -> if within window v then v :: acc else acc)
          t.cache.touched_volumes []
      in
      let volumes = if List.mem volume stale then stale else volume :: stale in
      (* Report the cached epoch per volume so a grantor that lost its
         durable state can issue strictly-higher epochs. *)
      let pairs = List.map (fun v -> (v, (vol_from t ~volume:v ~iqs).epoch)) volumes in
      send t iqs (Message.Vols_renew_req { volumes = pairs; t0 = now t });
      (* One batch in flight covers every listed volume; their timers
         become retransmission fallbacks (the grant re-arms properly). *)
      List.iter
        (fun v -> arm_renew_timer t ~volume:v ~iqs ~delay_ms:t.config.retry_timeout_ms)
        volumes
    end
    else
      (* A batch triggered by a sibling already renewed this lease;
         re-arm for the actual expiry. *)
      schedule_proactive_renew t ~volume ~iqs
  end
  else
    send t iqs
      (Message.Vol_renew_req
         { volume; t0 = now t; want = None; epoch = (vol_from t ~volume ~iqs).epoch })

and schedule_proactive_renew t ~volume ~iqs =
  if t.config.proactive_renew && not t.quiesced then begin
    let vf = vol_from t ~volume ~iqs in
    let renew_at = vf.expires -. t.config.renew_margin_ms in
    let delay_ms = Float.max 0. (Clock.delay_until t.clock renew_at) in
    arm_renew_timer t ~volume ~iqs ~delay_ms
  end

and apply_vol_grant t ~iqs ~volume ~lease_ms ~epoch ~t0 ~delayed =
  let vf = vol_from t ~volume ~iqs in
  (* Drift-compensated expiry measured from our own send time t0. *)
  let expires = t0 +. (lease_ms *. (1. -. t.config.max_drift)) in
  vf.expires <- Float.max vf.expires expires;
  vf.epoch <- Stdlib.max vf.epoch epoch;
  let upto =
    List.fold_left
      (fun acc (key, lc) ->
        apply_inval t ~iqs ~key ~lc;
        Lc.max acc lc)
      Lc.zero delayed
  in
  send t iqs (Message.Vol_renew_ack { volume; upto });
  Hashtbl.replace t.cache.touched_volumes volume ();
  schedule_proactive_renew t ~volume ~iqs

(* --- ensuring condition C --------------------------------------------- *)

let start_ensure t key =
  (* One round of the paper's QRPC variation: object renewals go to a
     random IQS read quorum (preferring the local node), and any volume
     lease that has expired — or would expire before a reply can return
     (within [renew_margin_ms]) — is refreshed from {e every} IQS
     member. Keeping all volume leases fresh means writes invalidate
     this node directly instead of queueing delayed invalidations, so a
     typical read miss resolves in a single renewal round; the extra
     renewal messages are amortized over every object in the volume.
     [vols] and [objs] serve the whole loop: a crash that replaces the
     cache also kills its timers and drops [t.ensuring].
     The loop remembers, per IQS node, the round in which it last asked
     for the volume lease and for the object, and the object's clock
     then. A re-run within a round (an invalidation, or delayed
     invalidations in a renewal reply) never re-asks for a volume lease
     already in flight, and re-asks for the object only where an
     invalidation has since consumed the grant in flight. A timer round
     asks again for everything still missing, which recovers losses. *)
  let volume = Key.volume key in
  let vols = vols_of t volume and objs = objs_of t key in
  let vol_asked = Array.make t.n_nodes (-1) in
  let obj_asked = Array.make t.n_nodes (-1) in
  let obj_asked_lc = Array.make t.n_nodes Lc.zero in
  let attempt ~round =
    let now = now t in
    let quorum =
      Dq_rpc.Qrpc.pick_read_targets ?strategy:t.config.iqs_read_strategy ~rng:t.rng
        ~system:t.config.iqs ~prefer:t.me ()
    in
    let visit i =
      let in_quorum = List.mem i quorum in
      let vol_fresh =
        (not t.config.use_volume_leases)
        || (vol_in vols i).expires > now +. t.config.renew_margin_ms
      in
      (* A finite object lease about to expire counts as missing too,
         so the grant arrives under a still-valid lease. The margin is
         capped for very short leases. *)
      let obj_ok =
        object_valid_at t vols objs ~now ~iqs:i
        &&
        match t.config.object_lease_ms with
        | None -> true
        | Some lease ->
          let margin = Float.min t.config.renew_margin_ms (lease /. 4.) in
          (obj_in objs i).expires > now +. margin
      in
      let lc = (obj_in objs i).lc in
      let obj_due =
        in_quorum && (not obj_ok)
        && (obj_asked.(i) < round || not (Lc.equal obj_asked_lc.(i) lc))
      in
      if obj_due then begin
        obj_asked.(i) <- round;
        obj_asked_lc.(i) <- lc
      end;
      if (not vol_fresh) && vol_asked.(i) < round then begin
        vol_asked.(i) <- round;
        if subscribed t then
          emit t (Dq_telemetry.Event.Lease_expired { node = t.me; peer = i; volume });
        send t i
          (Message.Vol_renew_req
             {
               volume;
               t0 = now;
               want = (if obj_due then Some key else None);
               epoch = (vol_in vols i).epoch;
             })
      end
      else if obj_due then send t i (Message.Obj_renew_req { key; t0 = now })
    in
    List.iter visit (Qs.members t.config.iqs)
  in
  let complete () = locally_valid_in t vols objs in
  let on_complete () =
    match Hashtbl.find_opt t.ensuring key with
    | Some e ->
      Hashtbl.remove t.ensuring key;
      let result = cached t key in
      List.iter (fun waiter -> waiter result) (List.rev e.waiters)
    | None -> ()
  in
  let loop =
    Dq_rpc.Retry.start
      ~timer:(fun ~delay_ms action -> Net.timer t.net ~node:t.me ~delay_ms action)
      ~attempt ~complete ~on_complete ~timeout_ms:t.config.retry_timeout_ms
      ~backoff:t.config.retry_backoff ~bus:t.bus ~node:t.me ~tag:"oqs.ensure_c" ()
  in
  loop

let with_valid_object t key callback =
  if is_locally_valid t key then begin
    if subscribed t then
      emit t
        (Dq_telemetry.Event.Cache_read
           { node = t.me; key = Key.to_string key; hit = true });
    callback (cached t key)
  end
  else
    match Hashtbl.find_opt t.ensuring key with
    | Some e -> e.waiters <- callback :: e.waiters
    | None ->
      (* Register the entry before starting the loop so that a
         synchronously-completing loop finds its waiters. *)
      if subscribed t then
        emit t
          (Dq_telemetry.Event.Cache_read
             { node = t.me; key = Key.to_string key; hit = false });
      let e = { loop = None; waiters = [ callback ] } in
      Hashtbl.add t.ensuring key e;
      let loop = start_ensure t key in
      if Hashtbl.mem t.ensuring key then e.loop <- Some loop

(* --- message dispatch -------------------------------------------------- *)

let handle t ~src msg =
  match msg with
  | Message.Oqs_read_req { op; key } ->
    with_valid_object t key (fun version ->
        send t src
          (Message.Oqs_read_reply { op; key; value = version.value; lc = version.lc }))
  | Message.Obj_renew_reply { grant } ->
    apply_obj_grant t ~iqs:src grant;
    poke_ensure_loops t
  | Message.Vols_renew_reply { t0; lease_ms; grants } ->
    let all_delayed =
      List.concat_map
        (fun (volume, epoch, delayed) ->
          apply_vol_grant t ~iqs:src ~volume ~lease_ms ~epoch ~t0 ~delayed;
          delayed)
        grants
    in
    poke_ensure_loops t;
    List.iter
      (fun (key, _) ->
        match Hashtbl.find_opt t.ensuring key with
        | Some { loop = Some loop; _ } -> Dq_rpc.Retry.rerun loop
        | Some { loop = None; _ } | None -> ())
      all_delayed
  | Message.Vol_renew_reply { volume; lease_ms; epoch; t0; delayed; grant } ->
    apply_vol_grant t ~iqs:src ~volume ~lease_ms ~epoch ~t0 ~delayed;
    Option.iter (apply_obj_grant t ~iqs:src) grant;
    poke_ensure_loops t;
    (* Delayed invalidations delivered with the lease may have consumed
       exactly the objects waiting reads were about to validate; re-drive
       their loops to fetch the fresh versions without a timer stall. *)
    List.iter
      (fun (key, _) ->
        match Hashtbl.find_opt t.ensuring key with
        | Some { loop = Some loop; _ } -> Dq_rpc.Retry.rerun loop
        | Some { loop = None; _ } | None -> ())
      delayed
  | Message.Inval { key; lc } ->
    apply_inval t ~iqs:src ~key ~lc;
    send t src (Message.Inval_ack { key; lc });
    (* If a read is waiting on condition C for this object, the
       invalidation has just consumed what its in-flight renewals will
       grant; re-drive the loop now rather than after its timer. *)
    (match Hashtbl.find_opt t.ensuring key with
    | Some { loop = Some loop; _ } -> Dq_rpc.Retry.rerun loop
    | Some { loop = None; _ } | None -> ())
  | Message.Client_read_req _ | Message.Client_read_reply _ | Message.Client_write_req _
  | Message.Client_write_reply _ | Message.Oqs_read_reply _ | Message.Lc_read_req _
  | Message.Lc_read_reply _ | Message.Iqs_write_req _ | Message.Iqs_write_ack _
  | Message.Obj_renew_req _ | Message.Vol_renew_req _ | Message.Vol_renew_ack _
  | Message.Vols_renew_req _ | Message.Inval_ack _
  | Message.Client_read_fail _ | Message.Client_write_fail _
  | Message.Sync_req _ | Message.Sync_resp _ ->
    ()

let on_recover t =
  t.cache <- fresh_cache t.n_nodes;
  t.ensuring <- Hashtbl.create 16;
  Hashtbl.reset t.renew_timers

let quiesce t =
  t.quiesced <- true;
  Hashtbl.iter (fun _ handle -> Dq_sim.Engine.cancel handle) t.renew_timers;
  Hashtbl.reset t.renew_timers

let local_time t = now t

(* Earliest future volume-lease expiry, as a virtual-time delay. This is
   the nemesis layer's targeting hook: firing a partition just inside
   this window hits the protocol exactly as a lease is about to lapse. *)
let next_lease_expiry_ms t =
  if not t.config.use_volume_leases then None
  else
    Obj_map.fold t.cache.vols ~init:None ~f:(fun _ vols acc ->
        Array.fold_left
          (fun acc (slot : vol_from option) ->
            match slot with
            | Some vf when vf.expires > now t && vf.expires < infinity -> (
              let delay = Clock.delay_until t.clock vf.expires in
              match acc with Some best when best <= delay -> acc | Some _ | None -> Some delay)
            | Some _ | None -> acc)
          acc vols)

let active_ensure_loops t = Hashtbl.length t.ensuring
