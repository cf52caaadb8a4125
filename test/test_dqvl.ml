(* DQVL protocol behaviour (Section 3.2): leases, delayed
   invalidations, epochs, bounded write-blocking under failures. *)

module Engine = Dq_sim.Engine
module Topology = Dq_net.Topology
module Net = Dq_net.Net
module Metrics = Dq_telemetry.Metrics
module Cluster = Dq_core.Cluster
module Config = Dq_core.Config
module Oqs = Dq_core.Oqs_server
module Iqs = Dq_core.Iqs_server
module R = Dq_intf.Replication
open Dq_storage

let key = Key.make ~volume:0 ~index:0

let lease = 2_000.

let setup ?(n_servers = 5) ?(proactive = false) ?config_map () =
  let engine = Engine.create ~seed:33L () in
  let topology = Topology.make ~n_servers ~n_clients:2 () in
  let servers = Topology.servers topology in
  let config =
    Config.dqvl ~servers ~volume_lease_ms:lease ~proactive_renew:proactive ()
  in
  let config = match config_map with Some f -> f config | None -> config in
  let cluster = Cluster.create engine topology config in
  (engine, topology, cluster, Cluster.api cluster)

let client_a = 5 (* closest to server 0 *)
let client_b = 6 (* closest to server 1 *)

let test_write_then_read () =
  let engine, _, _, api = setup () in
  let got = ref None in
  api.R.submit_write ~client:client_a ~server:0 key "x" (fun _ ->
      api.R.submit_read ~client:client_b ~server:1 key (fun r -> got := Some r.R.read_value));
  Engine.run ~until:60_000. engine;
  Alcotest.(check (option string)) "value" (Some "x") !got

let test_read_hit_after_miss () =
  let engine, _, cluster, api = setup () in
  let latencies = ref [] in
  let valid_after_hit = ref None in
  let timed_read server k =
    let start = Engine.now engine in
    api.R.submit_read ~client:client_a ~server key (fun _ ->
        latencies := (Engine.now engine -. start) :: !latencies;
        k ())
  in
  timed_read 0 (fun () ->
      timed_read 0 (fun () ->
          (* Check condition C while the leases are still fresh. *)
          match Cluster.oqs_server cluster 0 with
          | Some oqs -> valid_after_hit := Some (Oqs.is_locally_valid oqs key)
          | None -> ()));
  Engine.run ~until:30_000. engine;
  (match List.rev !latencies with
  | [ miss; hit ] ->
    Alcotest.(check bool) (Printf.sprintf "miss %.1f > 100" miss) true (miss > 100.);
    Alcotest.(check bool) (Printf.sprintf "hit %.1f < 20" hit) true (hit < 20.)
  | _ -> Alcotest.fail "two reads expected");
  Alcotest.(check (option bool)) "condition C holds" (Some true) !valid_after_hit

let test_lease_expires_without_renewal () =
  let engine, _, cluster, api = setup () in
  let valid_after = ref None in
  api.R.submit_read ~client:client_a ~server:0 key (fun _ ->
      (* Let more than a lease length pass with no renewals. *)
      ignore
        (Engine.schedule engine ~delay:(lease *. 1.5) (fun () ->
             match Cluster.oqs_server cluster 0 with
             | Some oqs -> valid_after := Some (Oqs.is_locally_valid oqs key)
             | None -> ())));
  Engine.run ~until:60_000. engine;
  Alcotest.(check (option bool)) "lease expired" (Some false) !valid_after

let test_proactive_renewal_keeps_hits () =
  let engine, _, cluster, api = setup ~proactive:true () in
  let valid_later = ref None in
  api.R.submit_read ~client:client_a ~server:0 key (fun _ ->
      ignore
        (Engine.schedule engine ~delay:(lease *. 5.) (fun () ->
             match Cluster.oqs_server cluster 0 with
             | Some oqs -> valid_later := Some (Oqs.is_locally_valid oqs key)
             | None -> ())));
  Engine.run ~until:(lease *. 6.) engine;
  Alcotest.(check (option bool)) "still valid after 5 leases" (Some true) !valid_later;
  api.R.quiesce ()

let test_write_completes_despite_crashed_oqs_node () =
  (* THE volume-lease property: with a reader's replica crashed, a
     write blocks at most about one lease length - not forever. *)
  let engine, _, _, api = setup () in
  let write_latency = ref None in
  api.R.submit_read ~client:client_a ~server:4 key (fun _ ->
      api.R.crash_server 4;
      let start = Engine.now engine in
      api.R.submit_write ~client:client_b ~server:1 key "v2" (fun _ ->
          write_latency := Some (Engine.now engine -. start)));
  Engine.run ~until:120_000. engine;
  match !write_latency with
  | Some latency ->
    Alcotest.(check bool)
      (Printf.sprintf "write blocked %.0f ms, about one lease" latency)
      true
      (latency < (2.5 *. lease) +. 1000.)
  | None -> Alcotest.fail "write never completed"

(* The lease-expiry re-check is what unblocks a write whose reader
   crashed: each IQS node's write loop settles about 1 ms after the
   crashed node's lease expires there, not at its next retransmission.
   Until then each blocked IQS node runs one loop for the write, however
   often the front end retransmits it. *)
let test_write_unblocks_at_lease_expiry () =
  let engine, topology, cluster, api = setup () in
  let crashed = 4 in
  let volume = Key.volume key in
  (* per IQS node: loops active just before and just after the expiry *)
  let probes = ref [] in
  let written = ref false in
  api.R.submit_read ~client:client_a ~server:crashed key (fun _ ->
      api.R.crash_server crashed;
      api.R.submit_write ~client:client_b ~server:1 key "v2" (fun _ -> written := true);
      (* once the write has reached the IQS nodes *)
      ignore
        (Engine.schedule engine ~delay:300. (fun () ->
             List.iter
               (fun server ->
                 match (Cluster.iqs_server cluster server, Cluster.server_clock cluster server) with
                 | Some iqs, Some clock when Iqs.active_write_loops iqs > 0 ->
                   let expiry =
                     Dq_sim.Clock.delay_until clock (Iqs.lease_expires iqs ~volume ~oqs:crashed)
                   in
                   let at delay = Engine.schedule engine ~delay (fun () ->
                       probes := (server, delay -. expiry, Iqs.active_write_loops iqs) :: !probes)
                   in
                   ignore (at (expiry -. 0.5));
                   ignore (at (expiry +. 1.5))
                 | _ -> ())
               (Topology.servers topology))));
  Engine.run ~until:60_000. engine;
  Alcotest.(check bool) "write completed" true !written;
  let probes = List.rev !probes in
  Alcotest.(check bool) "some IQS node was blocked" true (probes <> []);
  List.iter
    (fun (server, offset, loops) ->
      let what = Printf.sprintf "IQS %d, %+.1f ms from the lease expiry" server offset in
      (* Retransmitted copies of the one client write re-drive the loop
         already settling it, so a blocked node runs exactly one. *)
      if offset < 0. then Alcotest.(check int) (what ^ ": still blocked, by one loop") 1 loops
      else Alcotest.(check int) (what ^ ": settled") 0 loops)
    probes

let test_delayed_invalidation_via_partition () =
  (* Partition an OQS node that holds valid leases; a write then
     completes after the lease expires by queueing a delayed
     invalidation; after healing, a read through the partitioned node
     must see the new value (delivered with the volume renewal). *)
  let engine, topology, cluster, api = setup () in
  let net = Cluster.net cluster in
  let stale_node = 4 in
  let got = ref None in
  let delayed_at_iqs = ref (-1) in
  api.R.submit_read ~client:client_a ~server:stale_node key (fun _ ->
      (* stale_node now caches the initial value under valid leases. *)
      let clients = Topology.clients topology in
      let others = List.filter (fun n -> n <> stale_node) (Topology.servers topology) in
      Net.partition net [ [ stale_node ]; others @ clients ];
      api.R.submit_write ~client:client_b ~server:1 key "fresh" (fun _ ->
          (match Cluster.iqs_server cluster 1 with
          | Some iqs -> delayed_at_iqs := Iqs.delayed_count iqs ~volume:0 ~oqs:stale_node
          | None -> ());
          Net.heal net;
          api.R.submit_read ~client:client_a ~server:stale_node key (fun r ->
              got := Some r.R.read_value)));
  Engine.run ~until:300_000. engine;
  Alcotest.(check bool) "a delayed invalidation was queued" true (!delayed_at_iqs >= 1);
  Alcotest.(check (option string)) "no stale read after heal" (Some "fresh") !got

let test_epoch_advances_when_delayed_queue_overflows () =
  let engine, topology, cluster, api =
    setup ~config_map:(fun c -> { c with Config.max_delayed = 2 }) ()
  in
  let net = Cluster.net cluster in
  let stale_node = 4 in
  let keys = List.init 4 (fun i -> Key.make ~volume:0 ~index:i) in
  let epoch_after = ref (-1) in
  let reads_ok = ref 0 in
  (* Warm the cache for all four objects on the stale node. *)
  let rec warm = function
    | [] ->
      let others = List.filter (fun n -> n <> stale_node) (Topology.servers topology) in
      Net.partition net [ [ stale_node ]; others @ Topology.clients topology ];
      write_all keys
    | k :: rest -> api.R.submit_read ~client:client_a ~server:stale_node k (fun _ -> warm rest)
  and write_all = function
    | [] ->
      (match Cluster.iqs_server cluster 1 with
      | Some iqs -> epoch_after := Iqs.epoch iqs ~volume:0 ~oqs:stale_node
      | None -> ());
      Net.heal net;
      read_back keys
    | k :: rest ->
      api.R.submit_write ~client:client_b ~server:1 k "new" (fun _ -> write_all rest)
  and read_back = function
    | [] -> ()
    | k :: rest ->
      api.R.submit_read ~client:client_a ~server:stale_node k (fun r ->
          if r.R.read_value = "new" then incr reads_ok;
          read_back rest)
  in
  warm keys;
  Engine.run ~until:600_000. engine;
  Alcotest.(check bool) "epoch advanced" true (!epoch_after >= 1);
  Alcotest.(check int) "all reads fresh after epoch recovery" 4 !reads_ok

let test_regular_after_iqs_minority_crash () =
  let engine, _, _, api = setup () in
  let got = ref None in
  api.R.submit_write ~client:client_a ~server:0 key "v1" (fun _ ->
      (* Crash a minority of the IQS (2 of 5); writes and reads must
         still complete. *)
      api.R.crash_server 3;
      api.R.crash_server 4;
      api.R.submit_write ~client:client_b ~server:1 key "v2" (fun _ ->
          api.R.submit_read ~client:client_a ~server:0 key (fun r ->
              got := Some r.R.read_value)));
  Engine.run ~until:120_000. engine;
  Alcotest.(check (option string)) "survives minority crash" (Some "v2") !got

let test_oqs_cache_volatile_across_crash () =
  let engine, _, cluster, api = setup () in
  let second_value = ref None in
  api.R.submit_read ~client:client_a ~server:0 key (fun _ ->
      api.R.crash_server 0;
      api.R.recover_server 0;
      (match Cluster.oqs_server cluster 0 with
      | Some oqs ->
        Alcotest.(check bool) "cache cleared on recovery" false (Oqs.is_locally_valid oqs key)
      | None -> ());
      api.R.submit_read ~client:client_a ~server:0 key (fun r ->
          second_value := Some r.R.read_value));
  Engine.run ~until:60_000. engine;
  Alcotest.(check (option string)) "read after recovery works" (Some "") !second_value

let test_iqs_state_durable_across_crash () =
  let engine, _, cluster, api = setup () in
  let got = ref None in
  api.R.submit_write ~client:client_a ~server:0 key "persist" (fun _ ->
      api.R.crash_server 1;
      api.R.recover_server 1;
      (match Cluster.iqs_server cluster 1 with
      | Some iqs ->
        got := Some (Iqs.stored iqs key).Versioned.value
      | None -> ()));
  Engine.run ~until:60_000. engine;
  (* Server 1 is in the IQS write quorum with high probability; but the
     quorum is random, so only check when it received the write. *)
  match !got with
  | Some v -> Alcotest.(check bool) "durable or absent" true (v = "persist" || v = "")
  | None -> Alcotest.fail "introspection failed"

let test_write_suppress_and_through_counts () =
  let engine, _, cluster, api = setup () in
  let inval_count () =
    match
      List.assoc_opt "inval" (Metrics.by_label (Net.stats (Cluster.net cluster)))
    with
    | Some n -> n
    | None -> 0
  in
  let observations = ref [] in
  api.R.submit_write ~client:client_a ~server:0 key "w1" (fun _ ->
      let c1 = inval_count () in
      api.R.submit_write ~client:client_a ~server:0 key "w2" (fun _ ->
          let c2 = inval_count () in
          observations := [ ("suppress", c2 - c1) ];
          api.R.submit_read ~client:client_b ~server:1 key (fun _ ->
              let c3 = inval_count () in
              api.R.submit_write ~client:client_a ~server:0 key "w3" (fun _ ->
                  let c4 = inval_count () in
                  observations := ("through", c4 - c3) :: !observations))));
  Engine.run ~until:120_000. engine;
  match List.rev !observations with
  | [ ("suppress", s); ("through", t) ] ->
    Alcotest.(check int) "suppressed write sends no invalidations" 0 s;
    Alcotest.(check bool) "write after read invalidates" true (t > 0)
  | _ -> Alcotest.fail "missing observations"

let write_loops cluster topology =
  List.fold_left
    (fun n server ->
      match Cluster.iqs_server cluster server with
      | Some iqs -> n + Iqs.active_write_loops iqs
      | None -> n)
    0 (Topology.servers topology)

(* A write loop that settles on acknowledgements cancels the
   lease-expiry re-checks it armed for the readers it invalidated: once
   the acks are in, the write has left nothing pending in the engine. *)
let test_acked_write_leaves_no_timers () =
  let engine, topology, cluster, api = setup () in
  let before = ref (-1) and after = ref (-1) and loops = ref (-1) in
  (* Each count is taken by a probe event 100 ms after an operation
     completes, once its messages are delivered; a firing event is no
     longer pending itself. *)
  let probe f = ignore (Engine.schedule engine ~delay:100. f) in
  api.R.submit_read ~client:client_a ~server:0 key (fun _ ->
      api.R.submit_read ~client:client_b ~server:1 key (fun _ ->
          probe (fun () ->
              before := Engine.pending_events engine;
              api.R.submit_write ~client:client_a ~server:0 key "w" (fun _ ->
                  probe (fun () ->
                      loops := write_loops cluster topology;
                      after := Engine.pending_events engine)))));
  Engine.run ~until:60_000. engine;
  Alcotest.(check int) "every write loop settled" 0 !loops;
  Alcotest.(check int) "pending as before the write" !before !after

let test_reads_survive_iqs_partition_under_leases () =
  (* With valid leases in hand, an OQS node keeps serving local reads
     even when every IQS node is unreachable - the availability payoff
     of leases. Writes block during the partition and resume after. *)
  let engine = Engine.create ~seed:35L () in
  let topology = Topology.make ~n_servers:5 ~n_clients:2 () in
  let servers = Topology.servers topology in
  let config =
    Config.dqvl ~servers ~volume_lease_ms:60_000. ~proactive_renew:false ()
  in
  let cluster = Cluster.create engine topology config in
  let api = Cluster.api cluster in
  let net = Cluster.net cluster in
  let reads_during = ref 0 in
  let write_during = ref false in
  let write_after = ref false in
  api.R.submit_read ~client:client_a ~server:0 key (fun _ ->
      (* Cut server 0 (the reader's OQS node) plus its client off from
         the rest: the IQS majority is unreachable from node 0. *)
      Net.partition net [ [ 0; client_a ]; [ 1; 2; 3; 4; client_b ] ];
      let rec read_loop n =
        if n > 0 then
          api.R.submit_read ~client:client_a ~server:0 key (fun _ ->
              incr reads_during;
              read_loop (n - 1))
      in
      read_loop 5;
      (* A write into the majority side cannot invalidate node 0 and
         must wait out the lease; it stays blocked within our window. *)
      api.R.submit_write ~client:client_b ~server:1 key "w" (fun _ -> write_during := true);
      ignore
        (Engine.schedule engine ~delay:20_000. (fun () ->
             Alcotest.(check int) "leased reads served in partition" 5 !reads_during;
             Alcotest.(check bool) "write still blocked" false !write_during;
             Net.heal net)));
  ignore
    (Engine.schedule engine ~delay:100_000. (fun () ->
         api.R.submit_write ~client:client_b ~server:1 key "w2" (fun _ -> write_after := true)));
  Engine.run ~until:200_000. engine;
  Alcotest.(check bool) "write completed after heal" true (!write_during || !write_after)

let test_high_clock_drift_still_regular () =
  (* Stress the lease arithmetic: 5% drift rate (50x the default) with
     short leases; regular semantics must hold regardless. *)
  let engine = Engine.create ~seed:36L () in
  let topology = Topology.make ~n_servers:5 ~n_clients:3 () in
  let servers = Topology.servers topology in
  let config =
    {
      (Config.dqvl ~servers ~volume_lease_ms:800. ~proactive_renew:false ()) with
      Config.max_drift = 0.05;
      renew_margin_ms = 200.;
    }
  in
  let cluster = Cluster.create engine topology config in
  let api = Cluster.api cluster in
  let history = Dq_harness.History.create () in
  let done_ops = ref 0 in
  let rec client_loop ~client ~server n =
    if n = 0 then incr done_ops
    else begin
      let start = Engine.now engine in
      if n mod 3 = 0 then begin
        let value = Printf.sprintf "c%d-%d" client n in
        let id =
          Dq_harness.History.begin_op history ~client ~key ~kind:Dq_harness.History.Write
            ~value ~now:start
        in
        api.R.submit_write ~client ~server key value (fun w ->
            Dq_harness.History.complete_op history ~id ~value ~lc:w.R.write_lc
              ~now:(Engine.now engine);
            client_loop ~client ~server (n - 1))
      end
      else begin
        let id =
          Dq_harness.History.begin_op history ~client ~key ~kind:Dq_harness.History.Read
            ~value:"" ~now:start
        in
        api.R.submit_read ~client ~server key (fun r ->
            Dq_harness.History.complete_op history ~id ~value:r.R.read_value ~lc:r.R.read_lc
              ~now:(Engine.now engine);
            client_loop ~client ~server (n - 1))
      end
    end
  in
  client_loop ~client:5 ~server:0 30;
  client_loop ~client:6 ~server:1 30;
  client_loop ~client:7 ~server:2 30;
  Engine.run_while engine (fun () -> !done_ops < 3);
  api.R.quiesce ();
  let report = Dq_harness.Regular_checker.check (Dq_harness.History.ops history) in
  Alcotest.(check int) "regular under heavy drift" 0
    (List.length report.Dq_harness.Regular_checker.violations)

(* --- a read miss asks each IQS node once per round ------------------------ *)

module M = Dq_core.Message

let write_lc c = Lc.make ~count:c ~node:9

(* OQS node 0 alone on a manual network, with every server as its IQS
   (a majority): nothing answers, and what the node sent stays in the
   pending pool for the test to read. The one client, node
   [n_servers], issues the read. *)
let lone_oqs ~n_servers =
  let engine = Engine.create ~seed:3L () in
  let topology = Topology.make ~n_servers ~n_clients:1 () in
  let config =
    Config.dqvl ~servers:(Topology.servers topology) ~volume_lease_ms:lease
      ~proactive_renew:false ()
  in
  let net = Net.create engine topology ~classify:M.classify () in
  Net.set_manual net true;
  let oqs =
    Oqs.create ~net ~clock:(Dq_sim.Clock.perfect engine) ~config
      ~rng:(Engine.split_rng engine) ~me:0
  in
  (net, oqs)

let sent_to net ~dst wanted =
  List.length (List.filter (fun (src, d, msg) -> src = 0 && d = dst && wanted msg) (Net.pending net))

let vol_renew = function M.Vol_renew_req _ -> true | _ -> false

let obj_renew = function M.Obj_renew_req _ -> true | _ -> false

(* An invalidation re-runs the waiting read's loop, but the volume
   renewals of its round are still in flight: none is sent again. *)
let test_inval_does_not_resend_volume_renewals () =
  let net, oqs = lone_oqs ~n_servers:3 in
  Oqs.handle oqs ~src:3 (M.Oqs_read_req { op = 1; key });
  List.iter
    (fun i -> Alcotest.(check int) (Printf.sprintf "IQS %d asked once" i) 1 (sent_to net ~dst:i vol_renew))
    [ 0; 1; 2 ];
  Oqs.handle oqs ~src:1 (M.Inval { key; lc = write_lc 5 });
  Alcotest.(check int) "the read still waits" 1 (Oqs.active_ensure_loops oqs);
  List.iter
    (fun i ->
      Alcotest.(check int) (Printf.sprintf "IQS %d: no second Vol_renew_req" i) 1
        (sent_to net ~dst:i vol_renew))
    [ 0; 1; 2 ]

(* With both volume leases fresh, a miss asks its read quorum, here
   both IQS nodes, for the object. An invalidation from IQS 0 consumes
   the grant in flight from 0 only: the re-run asks 0 again, and not 1. *)
let test_inval_reasks_only_the_invalidated_node () =
  let net, oqs = lone_oqs ~n_servers:2 in
  List.iter
    (fun i ->
      Oqs.handle oqs ~src:i
        (M.Vol_renew_reply
           { volume = 0; lease_ms = lease; epoch = 0; t0 = 0.; delayed = []; grant = None }))
    [ 0; 1 ];
  Oqs.handle oqs ~src:2 (M.Oqs_read_req { op = 1; key });
  List.iter
    (fun i -> Alcotest.(check int) (Printf.sprintf "IQS %d asked once" i) 1 (sent_to net ~dst:i obj_renew))
    [ 0; 1 ];
  Oqs.handle oqs ~src:0 (M.Inval { key; lc = write_lc 5 });
  Alcotest.(check int) "IQS 0 asked again" 2 (sent_to net ~dst:0 obj_renew);
  Alcotest.(check int) "IQS 1: entry unchanged, no new Obj_renew_req" 1
    (sent_to net ~dst:1 obj_renew);
  Alcotest.(check int) "no volume renewal" 0
    (List.length (List.filter (fun (_, _, m) -> vol_renew m) (Net.pending net)))

(* Loss recovery stays with the timer round. IQS 2 is down, so only
   {0, 1} is a read quorum, and the first renewal reply from IQS 1 is
   lost. A retransmitted invalidation re-runs the loop at once, but the
   renewal to IQS 1 is re-sent only by the timer round, one retry
   timeout later, and then the read completes at OQS 0. *)
let test_lost_renewal_resent_by_timer_round () =
  let engine = Engine.create ~seed:3L () in
  let topology = Topology.make ~n_servers:3 ~n_clients:1 () in
  let config =
    Config.dqvl ~servers:(Topology.servers topology) ~volume_lease_ms:lease
      ~proactive_renew:false ()
  in
  let cluster = Cluster.create engine topology config in
  let api = Cluster.api cluster in
  let net = Cluster.net cluster in
  Net.set_manual net true;
  api.R.crash_server 2;
  let oqs = match Cluster.oqs_server cluster 0 with Some o -> o | None -> assert false in
  (* Deliver in send order; step the engine's timers when nothing is
     in flight. [on] sees each message first and may drop it. *)
  let rec drive ~on ~until budget =
    if budget = 0 then Alcotest.fail "schedule did not settle"
    else if not (until ()) then begin
      (match Net.pending net with
      | [] -> ignore (Engine.step engine)
      | (src, dst, msg) :: _ ->
        if on ~src ~dst msg then Net.deliver_pending net 0 else Net.drop_pending net 0);
      drive ~on ~until (budget - 1)
    end
  in
  let written = ref None in
  api.R.submit_write ~client:3 ~server:0 key "w" (fun w -> written := Some w.R.write_lc);
  drive ~on:(fun ~src:_ ~dst:_ _ -> true) ~until:(fun () -> Option.is_some !written) 10_000;
  let wlc = Option.get !written in
  let got = ref None in
  let renewals_to_1 = ref [] in
  let lost = ref false in
  let on ~src ~dst msg =
    match msg with
    | M.Vol_renew_req _ when src = 0 && dst = 1 ->
      renewals_to_1 := Engine.now engine :: !renewals_to_1;
      true
    | M.Vol_renew_reply _ when src = 1 && dst = 0 && not !lost ->
      lost := true;
      (* IQS 0 retransmits the write's invalidation, already applied. *)
      Net.send net ~src:0 ~dst:0 (M.Inval { key; lc = wlc });
      false
    | _ -> true
  in
  api.R.submit_read ~client:3 ~server:0 key (fun r -> got := Some r.R.read_value);
  drive ~on
    ~until:(fun () -> Option.is_some !got && Oqs.active_ensure_loops oqs = 0)
    10_000;
  Alcotest.(check (option string)) "read completes" (Some "w") !got;
  Alcotest.(check bool) "OQS 0 holds condition C" true (Oqs.is_locally_valid oqs key);
  match List.rev !renewals_to_1 with
  | [ first; again ] ->
    Alcotest.(check bool)
      (Printf.sprintf "re-sent %.0f ms later, by the timer round" (again -. first))
      true
      (again -. first >= config.Config.retry_timeout_ms)
  | sent -> Alcotest.failf "%d renewals to IQS 1, expected 2" (List.length sent)

let () =
  Alcotest.run "dqvl"
    [
      ( "basic behaviour",
        [
          Alcotest.test_case "write then read" `Quick test_write_then_read;
          Alcotest.test_case "read hit after miss" `Quick test_read_hit_after_miss;
          Alcotest.test_case "lease expiry" `Quick test_lease_expires_without_renewal;
          Alcotest.test_case "proactive renewal" `Quick test_proactive_renewal_keeps_hits;
          Alcotest.test_case "suppress and through" `Quick
            test_write_suppress_and_through_counts;
          Alcotest.test_case "acked write leaves no timers" `Quick
            test_acked_write_leaves_no_timers;
        ] );
      ( "failures",
        [
          Alcotest.test_case "write unblocked by lease expiry" `Quick
            test_write_completes_despite_crashed_oqs_node;
          Alcotest.test_case "write unblocked within 1 ms of lease expiry" `Quick
            test_write_unblocks_at_lease_expiry;
          Alcotest.test_case "delayed invalidations" `Quick
            test_delayed_invalidation_via_partition;
          Alcotest.test_case "epoch overflow" `Quick
            test_epoch_advances_when_delayed_queue_overflows;
          Alcotest.test_case "IQS minority crash" `Quick test_regular_after_iqs_minority_crash;
          Alcotest.test_case "reads survive IQS partition" `Quick
            test_reads_survive_iqs_partition_under_leases;
          Alcotest.test_case "heavy clock drift" `Quick test_high_clock_drift_still_regular;
          Alcotest.test_case "OQS cache volatile" `Quick test_oqs_cache_volatile_across_crash;
          Alcotest.test_case "IQS durable" `Quick test_iqs_state_durable_across_crash;
        ] );
      ( "renewal rounds",
        [
          Alcotest.test_case "invalidation re-sends no volume renewal" `Quick
            test_inval_does_not_resend_volume_renewals;
          Alcotest.test_case "invalidation re-asks only its node" `Quick
            test_inval_reasks_only_the_invalidated_node;
          Alcotest.test_case "lost renewal re-sent by the timer round" `Quick
            test_lost_renewal_resent_by_timer_round;
        ] );
    ]
