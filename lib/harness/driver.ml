module Engine = Dq_sim.Engine
module Topology = Dq_net.Topology
module Spec = Dq_workload.Spec
module Generator = Dq_workload.Generator
module Stats = Dq_util.Stats
module R = Dq_intf.Replication
module Metrics = Dq_telemetry.Metrics

type config = {
  spec : Spec.t;
  ops_per_client : int;
  warmup_ops : int;
  timeout_ms : float;
  horizon_ms : float;
  redirect_to_up : bool;
  value_pad : int;
}

let default_config spec =
  {
    spec;
    ops_per_client = 200;
    warmup_ops = 10;
    timeout_ms = 30_000.;
    horizon_ms = 3.6e6;
    redirect_to_up = false;
    value_pad = 0;
  }

type result = {
  protocol : string;
  read_latency : Stats.t;
  write_latency : Stats.t;
  all_latency : Stats.t;
  issued : int;
  completed : int;
  failed : int;
  gave_up : int;
  history : History.op list;
  remote_messages : int;
  messages_per_request : float;
  remote_bytes : int;
  bytes_per_request : float;
  elapsed_ms : float;
  throughput_per_s : float; (* completed operations per second *)
}

type event = {
  at_ms : float;
  action : [ `Crash of int | `Recover of int | `Partition of int list list | `Heal ];
}

(* Per-client closed loop state. *)
type client_state = {
  node : int;
  generator : Generator.t;
  mutable done_ops : int;
  mutable finished : bool;
}

let pick_server rng topology ~redirect ~up ~client ~use_closest =
  let closest = Topology.closest_server topology client in
  let preferred =
    if use_closest then closest
    else begin
      let servers = Topology.servers topology in
      let distant = List.filter (fun s -> s <> closest) servers in
      match distant with
      | [] -> closest
      | _ :: _ -> Option.value (Dq_util.Rng.choose rng distant) ~default:closest
    end
  in
  (* Request redirection (paper, Section 2): route to an available front
     end when the preferred one is down. If no server is up the request
     goes to the preferred one and will time out. *)
  if (not redirect) || up preferred then preferred
  else
    match List.filter up (Topology.servers topology) with
    | [] -> preferred
    | alive -> Option.value (Dq_util.Rng.choose rng alive) ~default:preferred

let run_with_events engine topology (api : R.api) config ~events ~on_net_event =
  Spec.validate config.spec;
  let started_at = Engine.now engine in
  let bus = Engine.telemetry engine in
  let subscribed () = Dq_telemetry.Bus.subscribed bus in
  let rng = Engine.split_rng engine in
  let history = History.create () in
  let read_latency = Stats.create () in
  let write_latency = Stats.create () in
  let all_latency = Stats.create () in
  let issued = ref 0 in
  let failed = ref 0 in
  let completed = ref 0 in
  let gave_up = ref 0 in
  let clients =
    List.mapi
      (fun index node ->
        {
          node;
          generator =
            Generator.create ~spec:config.spec ~rng:(Engine.split_rng engine)
              ~client_index:index;
          done_ops = 0;
          finished = false;
        })
      (Topology.clients topology)
  in
  List.iter
    (fun { at_ms; action } ->
      ignore
        (Engine.schedule_at engine ~time:at_ms (fun () ->
             match action with
             | `Crash id -> api.R.crash_server id
             | `Recover id -> api.R.recover_server id
             | `Partition groups -> on_net_event (`Partition groups)
             | `Heal -> on_net_event `Heal)))
    events;
  (* The run loop asks "is everything finished?" before every event, so
     completion is tracked with a counter instead of a per-event walk
     over the client list. *)
  let unfinished = ref (List.length clients) in
  let finish_client client =
    if not client.finished then begin
      client.finished <- true;
      decr unfinished
    end
  in
  (* [chain]: closed-loop clients issue the next operation from the
     completion (or timeout) of the current one; open-loop clients'
     operations are issued by the arrival process instead, and only
     settlement is tracked here. *)
  let rec issue_op client ~chain =
    begin
      let op = Generator.next client.generator in
      let server =
        pick_server rng topology ~redirect:config.redirect_to_up ~up:api.R.server_up
          ~client:client.node ~use_closest:op.Generator.use_closest
      in
      let kind =
        match op.Generator.kind with Generator.Read -> History.Read | Generator.Write -> History.Write
      in
      let start = Engine.now engine in
      let value =
        match kind with
        | History.Write ->
          (* The wire-size model charges [String.length value] per copy,
             so padding the value is how scenarios model large objects. *)
          let base = Printf.sprintf "c%d-%d" client.node !issued in
          if config.value_pad > String.length base then
            base ^ String.make (config.value_pad - String.length base) '.'
          else base
        | History.Read -> ""
      in
      let id =
        History.begin_op history ~client:client.node ~key:op.Generator.key ~kind ~value
          ~now:start
      in
      incr issued;
      let kind_str = match kind with History.Read -> "read" | History.Write -> "write" in
      if subscribed () then
        Dq_telemetry.Bus.emit bus
          (Dq_telemetry.Event.Op_start
             {
               op = id;
               client = client.node;
               kind = kind_str;
               key = Dq_storage.Key.to_string op.Generator.key;
             });
      let settled = ref false in
      (* The timeout timer holds only this cell, and settling the op
         empties it. Otherwise the timer would keep the op's closures,
         and through [issue_op] the whole history, reachable until it
         fires, 30 virtual seconds on and for as long as the engine
         lives at the end of a run. An emptied timer still fires, as a
         no-op, so the event count does not change. *)
      let timeout = ref ignore in
      let settle () =
        settled := true;
        timeout := ignore
      in
      let record_latency () =
        if client.done_ops >= config.warmup_ops then begin
          let latency = Engine.now engine -. start in
          Stats.add all_latency latency;
          match kind with
          | History.Read -> Stats.add read_latency latency
          | History.Write -> Stats.add write_latency latency
        end
      in
      let advance () =
        client.done_ops <- client.done_ops + 1;
        if client.done_ops >= config.ops_per_client then finish_client client
        else if chain then begin
          if config.spec.Spec.think_time_ms > 0. then
            ignore
              (Engine.schedule engine ~delay:config.spec.Spec.think_time_ms (fun () ->
                   issue_op client ~chain))
          else issue_op client ~chain
        end
      in
      let on_timeout () =
        if not !settled then begin
          settle ();
          incr failed;
          if subscribed () then
            Dq_telemetry.Bus.emit bus
              (Dq_telemetry.Event.Op_timeout
                 { op = id; client = client.node; kind = kind_str });
          advance ()
        end
      in
      timeout := on_timeout;
      ignore (Engine.schedule engine ~delay:config.timeout_ms (fun () -> !timeout ()));
      (* The protocol explicitly abandoned the operation (bounded
         retransmission exhausted): record it as failed immediately
         rather than leaving it to the timeout, so the history can tell
         "gave up" apart from "still pending". *)
      let on_give_up () =
        History.give_up_op history ~id ~now:(Engine.now engine);
        if subscribed () then
          Dq_telemetry.Bus.emit bus
            (Dq_telemetry.Event.Op_give_up
               { op = id; client = client.node; kind = kind_str });
        if not !settled then begin
          settle ();
          incr failed;
          incr gave_up;
          advance ()
        end
      in
      let complete ~value ~lc =
        (* A response after the timeout still completes the operation in
           the history (the write may have taken effect), but the client
           has already moved on. *)
        History.complete_op history ~id ~value ~lc ~now:(Engine.now engine);
        if subscribed () then begin
          Dq_telemetry.Bus.emit bus
            (Dq_telemetry.Event.Op_complete
               {
                 op = id;
                 client = client.node;
                 kind = kind_str;
                 start_ms = start;
                 latency_ms = Engine.now engine -. start;
               });
          (* The freshness-carrying twin of [Op_complete]: the served
             version's logical clock, for the AoI sink. *)
          Dq_telemetry.Bus.emit bus
            (Dq_telemetry.Event.Op_served
               {
                 op = id;
                 client = client.node;
                 kind = kind_str;
                 key = Dq_storage.Key.to_string op.Generator.key;
                 lc_count = lc.Dq_storage.Lc.count;
                 lc_node = lc.Dq_storage.Lc.node;
                 start_ms = start;
               })
        end;
        if not !settled then begin
          settle ();
          incr completed;
          record_latency ();
          advance ()
        end
      in
      match kind with
      | History.Read ->
        api.R.submit_read ~client:client.node ~server ~on_give_up op.Generator.key (fun r ->
            complete ~value:r.R.read_value ~lc:r.R.read_lc)
      | History.Write ->
        api.R.submit_write ~client:client.node ~server ~on_give_up op.Generator.key value
          (fun w -> complete ~value ~lc:w.R.write_lc)
    end
  in
  let start_client client =
    if config.ops_per_client <= 0 then finish_client client
    else
    match config.spec.Spec.arrival with
    | Spec.Closed -> issue_op client ~chain:true
    | Spec.Open { rate_per_s } ->
      let mean_gap_ms = 1000. /. rate_per_s in
      let rec arrivals n =
        if n < config.ops_per_client then begin
          issue_op client ~chain:false;
          let gap = Dq_util.Rng.exponential rng ~mean:mean_gap_ms in
          ignore (Engine.schedule engine ~delay:gap (fun () -> arrivals (n + 1)))
        end
      in
      arrivals 0
  in
  let before_messages = Metrics.remote_total (api.R.message_stats ()) in
  let before_bytes = Metrics.remote_bytes (api.R.message_stats ()) in
  List.iter start_client clients;
  Engine.run_while engine (fun () ->
      !unfinished > 0 && Engine.now engine <= config.horizon_ms);
  api.R.quiesce ();
  let after_messages = Metrics.remote_total (api.R.message_stats ()) in
  let remote_messages = after_messages - before_messages in
  let remote_bytes = Metrics.remote_bytes (api.R.message_stats ()) - before_bytes in
  let requests = Stdlib.max 1 !issued in
  {
    protocol = api.R.protocol_name;
    read_latency;
    write_latency;
    all_latency;
    issued = !issued;
    completed = !completed;
    failed = !failed;
    gave_up = !gave_up;
    history = History.ops history;
    remote_messages;
    messages_per_request = float_of_int remote_messages /. float_of_int requests;
    remote_bytes;
    bytes_per_request = float_of_int remote_bytes /. float_of_int requests;
    elapsed_ms = Engine.now engine -. started_at;
    throughput_per_s =
      (let elapsed = Engine.now engine -. started_at in
       if elapsed <= 0. then 0. else float_of_int !completed /. (elapsed /. 1000.));
  }

let run engine topology api config =
  run_with_events engine topology api config ~events:[] ~on_net_event:(fun _ -> ())
