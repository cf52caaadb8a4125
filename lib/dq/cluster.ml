module Net = Dq_net.Net
module Topology = Dq_net.Topology
module Qs = Dq_quorum.Quorum_system
module Engine = Dq_sim.Engine
module Clock = Dq_sim.Clock
module R = Dq_intf.Replication

type server_roles = {
  iqs : Iqs_server.t option;
  oqs : Oqs_server.t option;
  fe : Frontend.t;
}

type client_stub = {
  mutable next_op : int;
  pending : (int, [ `Read of R.read_result -> unit | `Write of R.write_result -> unit ]) Hashtbl.t;
  give_ups : (int, unit -> unit) Hashtbl.t;
      (* give-up notification per pending op, when the caller wants one *)
}

type t = {
  engine : Engine.t;
  net : Message.t Net.t;
  config : Config.t;
  servers : (int, server_roles) Hashtbl.t;
  clients : (int, client_stub) Hashtbl.t;
  clocks : (int, Clock.t) Hashtbl.t; (* per-server clocks, for fault injection *)
}

let config t = t.config

let net t = t.net

let iqs_server t id =
  match Hashtbl.find_opt t.servers id with Some r -> r.iqs | None -> None

let oqs_server t id =
  match Hashtbl.find_opt t.servers id with Some r -> r.oqs | None -> None

let frontend t id =
  match Hashtbl.find_opt t.servers id with Some r -> Some r.fe | None -> None

let make_server_clock engine config =
  (* Strictly inside the drift bound assumed by the lease arithmetic. *)
  let rng = Engine.split_rng engine in
  Clock.random engine ~rng ~max_drift:(config.Config.max_drift *. 0.9) ~max_offset:0.

let server_clock t id = Hashtbl.find_opt t.clocks id

let install_server t id =
  let clock = make_server_clock t.engine t.config in
  Clock.set_owner clock id;
  Hashtbl.replace t.clocks id clock;
  let iqs =
    if Qs.mem t.config.iqs id then
      Some (Iqs_server.create ~net:t.net ~clock ~config:t.config ~me:id)
    else None
  in
  let oqs =
    if Qs.mem t.config.oqs id then
      Some
        (Oqs_server.create ~net:t.net ~clock ~config:t.config
           ~rng:(Engine.split_rng t.engine) ~me:id)
    else None
  in
  let fe =
    Frontend.create ~net:t.net ~config:t.config ~rng:(Engine.split_rng t.engine) ~me:id
  in
  let roles = { iqs; oqs; fe } in
  Hashtbl.replace t.servers id roles;
  (* Every delivered message passes here: match the roles rather than
     allocate an [Option.iter] closure per role per message. *)
  Net.register t.net ~node:id (fun ~src msg ->
      (match roles.iqs with Some server -> Iqs_server.handle server ~src msg | None -> ());
      (match roles.oqs with Some server -> Oqs_server.handle server ~src msg | None -> ());
      Frontend.handle roles.fe ~src msg);
  Net.on_status_change t.net ~node:id (fun ~up ~wiped ->
      if up then begin
        (* The OQS cache and frontend state are volatile anyway: a wipe
           changes nothing for them (the cache restarts cold, epochs
           from 0). Only the IQS role has durable state to mourn. *)
        Option.iter (fun server -> Iqs_server.on_recover server ~wiped) roles.iqs;
        Option.iter Oqs_server.on_recover roles.oqs;
        Frontend.on_recover roles.fe
      end)

let install_client t id =
  let stub = { next_op = 0; pending = Hashtbl.create 8; give_ups = Hashtbl.create 8 } in
  Hashtbl.replace t.clients id stub;
  let settle op =
    Hashtbl.remove stub.pending op;
    Hashtbl.remove stub.give_ups op
  in
  Net.register t.net ~node:id (fun ~src:_ msg ->
      match msg with
      | Message.Client_read_reply { op; key; value; lc } -> (
        match Hashtbl.find_opt stub.pending op with
        | Some (`Read callback) ->
          settle op;
          callback { R.read_key = key; read_value = value; read_lc = lc }
        | Some (`Write _) | None -> ())
      | Message.Client_write_reply { op; key; lc } -> (
        match Hashtbl.find_opt stub.pending op with
        | Some (`Write callback) ->
          settle op;
          callback { R.write_key = key; write_lc = lc }
        | Some (`Read _) | None -> ())
      | Message.Client_read_fail { op; _ } | Message.Client_write_fail { op; _ } ->
        if Hashtbl.mem stub.pending op then begin
          let give_up = Hashtbl.find_opt stub.give_ups op in
          settle op;
          match give_up with Some notify -> notify () | None -> ()
        end
      (* client stubs only consume read/write replies; anything else
         addressed to a client is dropped by design *)
      | _ -> () [@dqr.lint.allow "R9"])

let create engine topology ?faults config =
  Config.validate config;
  let net = Net.create engine topology ?faults ~classify:Message.classify ~size_of:Message.size_of () in
  let t =
    {
      engine;
      net;
      config;
      servers = Hashtbl.create 16;
      clients = Hashtbl.create 8;
      clocks = Hashtbl.create 16;
    }
  in
  List.iter (install_server t) (Topology.servers topology);
  List.iter (install_client t) (Topology.clients topology);
  t

let client_stub t id =
  match Hashtbl.find_opt t.clients id with
  | Some stub -> stub
  | None -> invalid_arg (Printf.sprintf "Cluster: node %d is not a client" id)

let api t =
  let submit_read ~client ~server ?on_give_up key callback =
    let stub = client_stub t client in
    let op = stub.next_op in
    stub.next_op <- op + 1;
    Hashtbl.replace stub.pending op (`Read callback);
    (match on_give_up with
    | Some notify -> Hashtbl.replace stub.give_ups op notify
    | None -> ());
    Net.send t.net ~src:client ~dst:server (Message.Client_read_req { op; key })
  in
  let submit_write ~client ~server ?on_give_up key value callback =
    let stub = client_stub t client in
    let op = stub.next_op in
    stub.next_op <- op + 1;
    Hashtbl.replace stub.pending op (`Write callback);
    (match on_give_up with
    | Some notify -> Hashtbl.replace stub.give_ups op notify
    | None -> ());
    Net.send t.net ~src:client ~dst:server (Message.Client_write_req { op; key; value })
  in
  {
    R.protocol_name = Config.name t.config;
    submit_read;
    submit_write;
    crash_server = (fun id -> Net.crash t.net id);
    recover_server = (fun id -> Net.recover t.net id);
    server_up = (fun id -> Net.is_up t.net id);
    message_stats = (fun () -> Net.stats t.net);
    quiesce =
      (fun () ->
        Hashtbl.iter (fun _ roles -> Option.iter Oqs_server.quiesce roles.oqs) t.servers);
  }
