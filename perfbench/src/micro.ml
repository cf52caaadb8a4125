module Engine = Dq_sim.Engine
module Topology = Dq_net.Topology
module Net = Dq_net.Net
module Qs = Dq_quorum.Quorum_system
module Qrpc = Dq_rpc.Qrpc
module Registry = Dq_harness.Registry
module R = Dq_intf.Replication
module M = Dq_core.Message
module Oqs = Dq_core.Oqs_server
module Iqs = Dq_core.Iqs_server
module Key = Dq_storage.Key
module Lc = Dq_storage.Lc
module Event = Dq_telemetry.Event

type result = { ns_per_op : float; words_per_op : float }

(* Repeat [batch], which does [ops] operations, for at least [budget_s]
   and five batches after one untimed warm-up batch; ns/op is the median
   over batches, words/op the mean over all of them. *)
let measure ~budget_s ~ops batch =
  batch ();
  let deadline = Wall.now () +. budget_s in
  let rec loop samples words n =
    if n >= 5 && Wall.now () >= deadline then (samples, words, n)
    else begin
      let (), s, w = Wall.time batch in
      loop ((s *. 1e9 /. float_of_int ops) :: samples) (words +. w) (n + 1)
    end
  in
  let samples, words, n = loop [] 0. 0 in
  { ns_per_op = Report.median samples; words_per_op = words /. float_of_int (n * ops) }

let expect what ok = if not ok then failwith ("microbenchmark: " ^ what)

(* 1000 events over the delays the paper topology produces (local
   delivery, LAN, WAN, server-to-server, retransmission timers, lease
   renewals), so events land in both levels of the timer wheel. *)
let engine_dispatch ~seed ~budget_s =
  let engine = Engine.create ~seed () in
  let rng = Engine.split_rng engine in
  let base = [| 0.; 0.05; 8.; 80.; 86.; 400.; 5000. |] in
  let delays =
    Array.init 1000 (fun i ->
        base.(i mod Array.length base) +. Dq_util.Rng.float rng 1.)
  in
  let fired = ref 0 in
  let tick () = incr fired in
  let r =
    measure ~budget_s ~ops:1000 (fun () ->
        Array.iter (fun delay -> ignore (Engine.schedule engine ~delay tick : Engine.handle)) delays;
        Engine.run engine)
  in
  expect "every scheduled event fires" (!fired mod 1000 = 0 && !fired > 0);
  r

let net_send_deliver ~seed ~budget_s =
  let engine = Engine.create ~seed () in
  let topology = Topology.make ~n_servers:2 ~n_clients:0 () in
  let net = Net.create engine topology ~classify:(fun () -> "msg") () in
  let delivered = ref 0 in
  Net.register net ~node:0 (fun ~src:_ () -> ());
  Net.register net ~node:1 (fun ~src:_ () -> incr delivered);
  let sent = ref 0 in
  let r =
    measure ~budget_s ~ops:1000 (fun () ->
        for _ = 1 to 1000 do
          Net.send net ~src:0 ~dst:1 ()
        done;
        sent := !sent + 1000;
        Engine.run engine)
  in
  expect "every message is delivered" (!delivered = !sent);
  r

type echo = Req | Rep

(* Node 0 calls a majority quorum system over nodes 1..5, which echo. *)
let qrpc_round ~seed ~budget_s =
  let engine = Engine.create ~seed () in
  let topology = Topology.make ~n_servers:6 ~n_clients:0 () in
  let net = Net.create engine topology ~classify:(function Req -> "req" | Rep -> "rep") () in
  let members = [ 1; 2; 3; 4; 5 ] in
  let system = Qs.majority members in
  let current = ref None in
  Net.register net ~node:0 (fun ~src msg ->
      match msg, !current with Rep, Some call -> Qrpc.deliver call ~src Rep | _ -> ());
  List.iter
    (fun node ->
      Net.register net ~node (fun ~src msg ->
          match msg with Req -> Net.send net ~src:node ~dst:src Rep | Rep -> ()))
    members;
  let rng = Engine.split_rng engine in
  let calls = ref 0 and quorums = ref 0 in
  let r =
    measure ~budget_s ~ops:100 (fun () ->
        for _ = 1 to 100 do
          incr calls;
          current :=
            Some
              (Qrpc.call
                 ~timer:(fun ~delay_ms action -> Net.timer net ~node:0 ~delay_ms action)
                 ~rng ~system ~mode:Qrpc.Read
                 ~send:(fun dst -> Net.send net ~src:0 ~dst Req)
                 ~on_quorum:(fun _ -> incr quorums)
                 ());
          Engine.run engine
        done)
  in
  expect "every call reaches its quorum" (!quorums = !calls);
  r

let warmed_dqvl ~seed =
  let engine = Engine.create ~seed () in
  let topology = Workload.paper_topology () in
  let instance =
    match Registry.find "dqvl" with
    | Some b -> b.Registry.build engine topology ()
    | None -> failwith "dqvl builder missing"
  in
  let cluster =
    match instance.Registry.dq_cluster with Some c -> c | None -> failwith "no dq cluster"
  in
  (engine, topology, instance, cluster)

(* A read at server 0 from its co-located client leaves server 0's OQS
   holding valid volume and object leases for the key: condition C. *)
let oqs_read_hit ~seed ~budget_s =
  let engine, topology, instance, cluster = warmed_dqvl ~seed in
  let key = Key.make ~volume:0 ~index:0 in
  let client = List.hd (Topology.clients topology) in
  let server = Topology.closest_server topology client in
  let warmed = ref false in
  instance.Registry.api.R.submit_read ~client ~server key (fun _ -> warmed := true);
  Engine.run ~until:2_000. engine;
  let oqs =
    match Dq_core.Cluster.oqs_server cluster server with
    | Some oqs -> oqs
    | None -> failwith "no OQS at the client's server"
  in
  expect "warm-up read completes" !warmed;
  expect "warm OQS holds condition C" (Oqs.is_locally_valid oqs key);
  let op = ref 1_000_000 in
  let r =
    measure ~budget_s ~ops:1000 (fun () ->
        for _ = 1 to 1000 do
          incr op;
          Oqs.handle oqs ~src:server (M.Oqs_read_req { op = !op; key })
        done;
        Engine.run ~until:(Engine.now engine +. 1.) engine)
  in
  expect "condition C held throughout" (Oqs.is_locally_valid oqs key);
  r

(* A lone IQS replica of a nine-server DQVL configuration; no OQS holds
   a lease, so each write takes the delayed-invalidation path and is
   acknowledged at once. *)
let iqs_write ~seed ~budget_s =
  let engine = Engine.create ~seed () in
  let topology = Topology.make ~n_servers:9 ~n_clients:0 () in
  let servers = Topology.servers topology in
  let config = Dq_core.Config.dqvl ~servers () in
  let net = Net.create engine topology ~classify:M.classify () in
  let acks = ref 0 in
  List.iter
    (fun node ->
      Net.register net ~node (fun ~src:_ msg ->
          match msg with M.Iqs_write_ack _ -> incr acks | _ -> ()))
    servers;
  let iqs = Iqs.create ~net ~clock:(Dq_sim.Clock.perfect engine) ~config ~me:0 in
  (* Leave virtual time 0, where a never-granted lease still reads as
     unexpired. *)
  Engine.run ~until:1. engine;
  let key = Key.make ~volume:0 ~index:0 in
  let count = ref 0 in
  let r =
    measure ~budget_s ~ops:1000 (fun () ->
        for _ = 1 to 1000 do
          incr count;
          Iqs.handle iqs ~src:1
            (M.Iqs_write_req { op = !count; key; value = "v"; lc = Lc.make ~count:!count ~node:1 })
        done;
        Engine.run ~until:(Engine.now engine +. 1.) engine)
  in
  Engine.run engine;
  expect "every write is acknowledged" (!acks = !count);
  r

(* {2 Telemetry sink replay} *)

type recorder = { limit : int; mutable n : int; mutable rev : (float * Event.t) list }

let recorder ~limit = { limit; n = 0; rev = [] }

let record r ~time_ms event =
  if r.n < r.limit then begin
    r.n <- r.n + 1;
    r.rev <- (time_ms, event) :: r.rev
  end

let recorded r = Array.of_list (List.rev r.rev)

let sink_replay ~budget_s events make_sink =
  let n = Array.length events in
  expect "a recorded event stream" (n > 0);
  (measure ~budget_s ~ops:n (fun () ->
       let sink = make_sink () in
       Array.iter (fun (time_ms, event) -> sink ~time_ms event) events))
    .ns_per_op
