type fault_model = { loss : float; duplicate : float; jitter_ms : float }

let no_faults = { loss = 0.; duplicate = 0.; jitter_ms = 0. }

type degrade = { extra_delay_ms : float; extra_loss : float }

type 'msg node_state = {
  mutable handler : (src:int -> 'msg -> unit) option;
  mutable up : bool;
  mutable incarnation : int;
  mutable wiped : bool; (* pending recovery is from an amnesia crash *)
  mutable degrade : degrade option; (* gray failure on all of this node's links *)
  mutable watchers : (up:bool -> wiped:bool -> unit) list;
  mutable busy_until : float; (* FIFO service queue tail *)
}

type 'msg t = {
  engine : Dq_sim.Engine.t;
  bus : Dq_telemetry.Bus.t;
  topology : Topology.t;
  rng : Dq_util.Rng.t;
  classify : 'msg -> string;
  size_of : 'msg -> int;
  stats : Dq_telemetry.Metrics.t;
  nodes : 'msg node_state array;
  mutable faults : fault_model;
  mutable group_of : int array option; (* partition group per node *)
  (* Directed-link state, dense over [src * n + dst] so a send indexes
     it without hashing; both stay empty until first needed. *)
  mutable cuts : bool array; (* severed directed links *)
  mutable link_faults : fault_model option array; (* per-link overrides *)
  flap_gens : (int * int, int) Hashtbl.t; (* live flap schedule per link *)
  mutable next_flap_gen : int;
  mutable manual : bool;
  mutable pending_pool : (int * int * 'msg) list; (* newest first *)
  mutable service_time_ms : float;
  (* The handlers every delivery event calls, built once per network so
     a send allocates no closure: arrival at the destination, and the
     end of its service queue. *)
  on_arrive : src:int -> dst:int -> 'msg -> unit;
  on_serviced : src:int -> dst:int -> 'msg -> unit;
}

let set_service_time t ~ms =
  if ms < 0. then invalid_arg "Net.set_service_time: negative";
  t.service_time_ms <- ms

let engine t = t.engine
let topology t = t.topology
let stats t = t.stats
let set_faults t faults = t.faults <- faults

let check_id t id =
  if id < 0 || id >= Array.length t.nodes then
    invalid_arg (Printf.sprintf "Net: bad node id %d" id)

let register t ~node handler =
  check_id t node;
  t.nodes.(node).handler <- Some handler

let is_up t id =
  check_id t id;
  t.nodes.(id).up

(* {2 Per-directed-link faults and cuts} *)

let link t ~src ~dst = (src * Array.length t.nodes) + dst

let n_links t = Array.length t.nodes * Array.length t.nodes

let set_link_faults t ~src ~dst faults =
  check_id t src;
  check_id t dst;
  if Array.length t.link_faults = 0 && Option.is_some faults then
    t.link_faults <- Array.make (n_links t) None;
  if Array.length t.link_faults > 0 then t.link_faults.(link t ~src ~dst) <- faults

let link_faults t ~src ~dst =
  check_id t src;
  check_id t dst;
  if Array.length t.link_faults = 0 then None else t.link_faults.(link t ~src ~dst)

let effective_faults t ~src ~dst =
  if Array.length t.link_faults = 0 then t.faults
  else match t.link_faults.(link t ~src ~dst) with Some f -> f | None -> t.faults

(* {2 Gray failure: per-node degradation}

   A degraded node is slow and lossy on every link it touches, in both
   directions, without being partitioned away: [reachable] is
   unaffected. The extra loss folds into the single per-send loss draw
   (independent-failure composition), so the RNG draw sequence is
   byte-identical whenever no node is degraded. *)

let degrade_node t id ~delay_ms ~loss =
  check_id t id;
  if delay_ms < 0. then invalid_arg "Net.degrade_node: negative delay";
  if loss < 0. || loss > 1. then invalid_arg "Net.degrade_node: loss outside [0, 1]";
  t.nodes.(id).degrade <- Some { extra_delay_ms = delay_ms; extra_loss = loss };
  if Dq_telemetry.Bus.subscribed t.bus then
    Dq_telemetry.Bus.emit t.bus
      (Dq_telemetry.Event.Fault_injected
         { label = Printf.sprintf "net.degrade/%d" id })

let clear_degrade t id =
  check_id t id;
  match t.nodes.(id).degrade with
  | None -> ()
  | Some _ ->
    begin
    t.nodes.(id).degrade <- None;
    if Dq_telemetry.Bus.subscribed t.bus then
      Dq_telemetry.Bus.emit t.bus
        (Dq_telemetry.Event.Fault_injected
           { label = Printf.sprintf "net.undegrade/%d" id })
  end

let degraded t id =
  check_id t id;
  match t.nodes.(id).degrade with
  | None -> None
  | Some d -> Some (d.extra_delay_ms, d.extra_loss)

let fold_degrade_loss acc = function
  | None -> acc
  | Some d -> 1. -. ((1. -. acc) *. (1. -. d.extra_loss))

let degrade_delay = function None -> 0. | Some d -> d.extra_delay_ms

let severed t ~src ~dst = Array.length t.cuts > 0 && t.cuts.(link t ~src ~dst)

let cut t ~src ~dst =
  check_id t src;
  check_id t dst;
  if not (severed t ~src ~dst) then begin
    if Array.length t.cuts = 0 then t.cuts <- Array.make (n_links t) false;
    t.cuts.(link t ~src ~dst) <- true;
    if Dq_telemetry.Bus.subscribed t.bus then
      Dq_telemetry.Bus.emit t.bus (Dq_telemetry.Event.Link_cut { src; dst })
  end

let uncut t ~src ~dst =
  check_id t src;
  check_id t dst;
  if severed t ~src ~dst then begin
    t.cuts.(link t ~src ~dst) <- false;
    if Dq_telemetry.Bus.subscribed t.bus then
      Dq_telemetry.Bus.emit t.bus (Dq_telemetry.Event.Link_uncut { src; dst })
  end

let is_cut t ~src ~dst =
  check_id t src;
  check_id t dst;
  severed t ~src ~dst

let uncut_all t = Array.fill t.cuts 0 (Array.length t.cuts) false

let reachable t ~src ~dst =
  (not (severed t ~src ~dst))
  &&
  match t.group_of with
  | None -> true
  | Some groups -> groups.(src) = groups.(dst)

(* Link flapping: the directed link alternates available/severed with
   the given duty cycle until [until_ms] (absolute virtual time), then
   is restored. A new flap on the same link supersedes the old one; any
   global [heal] stops all flapping. *)
let flap_link t ~src ~dst ~up_ms ~down_ms ~until_ms =
  check_id t src;
  check_id t dst;
  if up_ms <= 0. || down_ms <= 0. then invalid_arg "Net.flap_link: non-positive phase";
  t.next_flap_gen <- t.next_flap_gen + 1;
  let generation = t.next_flap_gen in
  Hashtbl.replace t.flap_gens (src, dst) generation;
  let rec phase is_up () =
    let gen_live =
      match Hashtbl.find_opt t.flap_gens (src, dst) with
      | Some g -> g = generation
      | None -> false
    in
    if gen_live then begin
      if Dq_sim.Engine.now t.engine >= until_ms then begin
        Hashtbl.remove t.flap_gens (src, dst);
        uncut t ~src ~dst
      end
      else begin
        if is_up then uncut t ~src ~dst else cut t ~src ~dst;
        let dwell = if is_up then up_ms else down_ms in
        ignore (Dq_sim.Engine.schedule t.engine ~delay:dwell (phase (not is_up)))
      end
    end
  in
  phase true ()

let deliver t ~src ~dst msg =
  let node = t.nodes.(dst) in
  if node.up then
    match node.handler with
    | Some handler ->
      if Dq_telemetry.Bus.subscribed t.bus then
        Dq_telemetry.Bus.emit t.bus
          (Dq_telemetry.Event.Msg_delivered { src; dst; label = t.classify msg });
      handler ~src msg
    | None -> ()
  else if Dq_telemetry.Bus.subscribed t.bus then
    Dq_telemetry.Bus.emit t.bus
      (Dq_telemetry.Event.Msg_dropped
         { src; dst; label = t.classify msg; reason = "node-down" })

(* Message arrival: with a service-time model, the destination works
   through its queue FIFO; otherwise deliver immediately. *)
let arrive t ~src ~dst msg =
  if t.service_time_ms <= 0. then deliver t ~src ~dst msg
  else begin
    let node = t.nodes.(dst) in
    let now = Dq_sim.Engine.now t.engine in
    let start = Float.max now node.busy_until in
    let done_at = start +. t.service_time_ms in
    node.busy_until <- done_at;
    Dq_sim.Engine.schedule_delivery t.engine ~delay:(done_at -. now) t.on_serviced ~src
      ~dst msg
  end

let create engine topology ?(faults = no_faults) ~classify ?(size_of = fun _ -> 0) () =
  let n = Topology.n_nodes topology in
  let fresh_node _ =
    {
      handler = None;
      up = true;
      incarnation = 0;
      wiped = false;
      degrade = None;
      watchers = [];
      busy_until = 0.;
    }
  in
  let bus = Dq_sim.Engine.telemetry engine in
  let rng = Dq_sim.Engine.split_rng engine in
  let stats = Dq_telemetry.Metrics.create () in
  let nodes = Array.init n fresh_node in
  let flap_gens = Hashtbl.create 8 in
  let rec t =
    {
      engine;
      bus;
      topology;
      rng;
      classify;
      size_of;
      stats;
      nodes;
      faults;
      group_of = None;
      cuts = [||];
      link_faults = [||];
      flap_gens;
      next_flap_gen = 0;
      manual = false;
      pending_pool = [];
      service_time_ms = 0.;
      on_arrive = (fun ~src ~dst msg -> arrive t ~src ~dst msg);
      on_serviced = (fun ~src ~dst msg -> deliver t ~src ~dst msg);
    }
  in
  t

(* One copy of a message: draws its jitter (when the link has any), then
   schedules its arrival as a delivery event. *)
let schedule_arrival t ~src ~dst msg faults deg_src deg_dst =
  let jitter =
    if faults.jitter_ms > 0. then Dq_util.Rng.float t.rng faults.jitter_ms else 0.
  in
  let delay =
    Topology.delay t.topology ~src ~dst +. jitter +. degrade_delay deg_src
    +. degrade_delay deg_dst
  in
  Dq_sim.Engine.schedule_delivery t.engine ~delay t.on_arrive ~src ~dst msg

let send t ~src ~dst msg =
  check_id t src;
  check_id t dst;
  if t.nodes.(src).up then begin
    let local = src = dst in
    let label = t.classify msg in
    let bytes = t.size_of msg in
    Dq_telemetry.Metrics.record_msg t.stats ~label ~local ~bytes;
    (* Telemetry must not perturb the RNG draw sequence: the loss draw
       happens only on reachable links and the duplicate draw only on
       non-lost messages, exactly as before the bus existed. *)
    let subscribed = Dq_telemetry.Bus.subscribed t.bus in
    if subscribed then
      Dq_telemetry.Bus.emit t.bus
        (Dq_telemetry.Event.Msg_sent { src; dst; label; bytes; local });
    if t.manual then t.pending_pool <- (src, dst, msg) :: t.pending_pool
    else begin
      let faults = effective_faults t ~src ~dst in
      if reachable t ~src ~dst then begin
        (* Gray degradation folds into the one loss draw and adds a
           deterministic delay, so undegraded runs draw identically. *)
        let deg_src = t.nodes.(src).degrade and deg_dst = t.nodes.(dst).degrade in
        let loss =
          match (deg_src, deg_dst) with
          | None, None -> faults.loss
          | _ -> fold_degrade_loss (fold_degrade_loss faults.loss deg_src) deg_dst
        in
        (* Both draws are [Rng.bernoulli]'s, written out so that no
           probability is boxed for a call. *)
        if not (loss > 0. && (loss >= 1. || Dq_util.Rng.float t.rng 1.0 < loss)) then begin
          schedule_arrival t ~src ~dst msg faults deg_src deg_dst;
          let dup = faults.duplicate in
          if dup > 0. && (dup >= 1. || Dq_util.Rng.float t.rng 1.0 < dup) then
            schedule_arrival t ~src ~dst msg faults deg_src deg_dst
        end
        else if subscribed then
          Dq_telemetry.Bus.emit t.bus
            (Dq_telemetry.Event.Msg_dropped { src; dst; label; reason = "loss" })
      end
      else if subscribed then
        Dq_telemetry.Bus.emit t.bus
          (Dq_telemetry.Event.Msg_dropped { src; dst; label; reason = "unreachable" })
    end
  end

let notify_watchers node ~up ~wiped =
  List.iter (fun watch -> watch ~up ~wiped) (List.rev node.watchers)

(* Fail-stop and amnesia crashes share the take-down path; amnesia
   additionally marks the node wiped so the eventual recovery
   notification tells protocol layers their "durable" state is gone.
   A fail-stop crash after an unrecovered amnesia crash keeps the wipe
   pending: the disk did not come back in between. *)
let crash_kind t id ~wiped =
  check_id t id;
  let node = t.nodes.(id) in
  if node.up then begin
    node.up <- false;
    node.incarnation <- node.incarnation + 1;
    node.wiped <- node.wiped || wiped;
    if Dq_telemetry.Bus.subscribed t.bus then begin
      Dq_telemetry.Bus.emit t.bus (Dq_telemetry.Event.Node_crash { node = id });
      if wiped then
        Dq_telemetry.Bus.emit t.bus (Dq_telemetry.Event.Node_wipe { node = id })
    end;
    notify_watchers node ~up:false ~wiped
  end
  else if wiped && not node.wiped then begin
    (* Already down from a fail-stop crash: the wipe still happens. *)
    node.wiped <- true;
    if Dq_telemetry.Bus.subscribed t.bus then
      Dq_telemetry.Bus.emit t.bus (Dq_telemetry.Event.Node_wipe { node = id })
  end

let crash t id = crash_kind t id ~wiped:false
let crash_amnesia t id = crash_kind t id ~wiped:true

let recover t id =
  check_id t id;
  let node = t.nodes.(id) in
  if not node.up then begin
    node.up <- true;
    let wiped = node.wiped in
    node.wiped <- false;
    if Dq_telemetry.Bus.subscribed t.bus then
      Dq_telemetry.Bus.emit t.bus (Dq_telemetry.Event.Node_recover { node = id });
    notify_watchers node ~up:true ~wiped
  end

let on_status_change t ~node watch =
  check_id t node;
  let state = t.nodes.(node) in
  state.watchers <- watch :: state.watchers

(* A node-scoped timer fires only if its node is up in the incarnation
   that armed it. *)
let alive state incarnation = state.up && state.incarnation = incarnation

let timer t ~node ~delay_ms action =
  check_id t node;
  let state = t.nodes.(node) in
  Dq_sim.Engine.schedule_guarded t.engine ~delay:delay_ms ~guard:alive state
    state.incarnation action

let set_manual t on = t.manual <- on

let pending t = List.rev t.pending_pool

let take_pending t i =
  let ordered = pending t in
  if i < 0 then invalid_arg "Net: pending index out of range";
  match List.nth_opt ordered i with
  | None -> invalid_arg "Net: pending index out of range"
  | Some entry ->
    t.pending_pool <- List.rev (List.filteri (fun j _ -> j <> i) ordered);
    entry

let deliver_pending t i =
  let src, dst, msg = take_pending t i in
  if reachable t ~src ~dst then deliver t ~src ~dst msg

let drop_pending t i = ignore (take_pending t i)

let partition t groups =
  let n = Array.length t.nodes in
  let group_of = Array.make n (-1) in
  List.iteri
    (fun g members ->
      List.iter
        (fun id ->
          check_id t id;
          group_of.(id) <- g)
        members)
    groups;
  (* Unlisted nodes form an implicit final group. *)
  let implicit = List.length groups in
  Array.iteri (fun i g -> if g = -1 then group_of.(i) <- implicit) group_of;
  t.group_of <- Some group_of;
  if Dq_telemetry.Bus.subscribed t.bus then
    Dq_telemetry.Bus.emit t.bus
      (Dq_telemetry.Event.Fault_injected
         { label = Printf.sprintf "net.partition/%d" (List.length groups) })

let heal t =
  t.group_of <- None;
  Hashtbl.reset t.flap_gens;
  uncut_all t;
  if Dq_telemetry.Bus.subscribed t.bus then
    Dq_telemetry.Bus.emit t.bus (Dq_telemetry.Event.Fault_injected { label = "net.heal" })

(* {2 Message-type-erased control handle} *)

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

let control t =
  {
    c_nodes = Topology.nodes t.topology;
    c_partition = (fun groups -> partition t groups);
    c_heal = (fun () -> heal t);
    c_cut = (fun ~src ~dst -> cut t ~src ~dst);
    c_uncut = (fun ~src ~dst -> uncut t ~src ~dst);
    c_set_link_faults = (fun ~src ~dst faults -> set_link_faults t ~src ~dst faults);
    c_set_faults = (fun faults -> set_faults t faults);
    c_flap_link =
      (fun ~src ~dst ~up_ms ~down_ms ~until_ms ->
        flap_link t ~src ~dst ~up_ms ~down_ms ~until_ms);
    c_crash = (fun id -> crash t id);
    c_crash_amnesia = (fun id -> crash_amnesia t id);
    c_recover = (fun id -> recover t id);
    c_degrade_node = (fun id ~delay_ms ~loss -> degrade_node t id ~delay_ms ~loss);
    c_clear_degrade = (fun id -> clear_degrade t id);
    c_is_up = (fun id -> is_up t id);
    c_reachable = (fun ~src ~dst -> reachable t ~src ~dst);
  }
