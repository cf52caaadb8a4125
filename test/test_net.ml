module Engine = Dq_sim.Engine
module Topology = Dq_net.Topology
module Net = Dq_net.Net
module Metrics = Dq_telemetry.Metrics

type msg = Ping of int

let classify (Ping _) = "ping"

let make ?faults () =
  let engine = Engine.create ~seed:1L () in
  let topo = Topology.make ~n_servers:4 ~n_clients:1 () in
  let net = Net.create engine topo ?faults ~classify () in
  (engine, net)

let collect net node =
  let received = ref [] in
  Net.register net ~node (fun ~src msg -> received := (src, msg) :: !received);
  received

let test_delivery_and_delay () =
  let engine, net = make () in
  let received = collect net 1 in
  let arrival = ref 0. in
  Net.register net ~node:1 (fun ~src msg ->
      arrival := Engine.now engine;
      ignore src;
      ignore msg);
  Net.send net ~src:0 ~dst:1 (Ping 7);
  Engine.run engine;
  Alcotest.(check (float 0.)) "server-server delay" 80. !arrival;
  ignore received

let test_local_delivery () =
  let engine, net = make () in
  let arrival = ref (-1.) in
  Net.register net ~node:2 (fun ~src:_ _ -> arrival := Engine.now engine);
  Net.send net ~src:2 ~dst:2 (Ping 0);
  Engine.run engine;
  Alcotest.(check (float 0.)) "local delay" 0.05 !arrival

let test_sender_id_passed () =
  let engine, net = make () in
  let received = collect net 3 in
  Net.send net ~src:1 ~dst:3 (Ping 9);
  Engine.run engine;
  match !received with
  | [ (src, Ping 9) ] -> Alcotest.(check int) "src" 1 src
  | _ -> Alcotest.fail "expected exactly one message"

let test_loss () =
  let engine, net = make ~faults:{ Net.loss = 1.0; duplicate = 0.; jitter_ms = 0. } () in
  let received = collect net 1 in
  for _ = 1 to 20 do
    Net.send net ~src:0 ~dst:1 (Ping 0)
  done;
  Engine.run engine;
  Alcotest.(check int) "all lost" 0 (List.length !received);
  (* Lost messages still count as sent. *)
  Alcotest.(check int) "counted as sent" 20 (Metrics.remote_total (Net.stats net))

let test_duplication () =
  let engine, net = make ~faults:{ Net.loss = 0.; duplicate = 1.0; jitter_ms = 0. } () in
  let received = collect net 1 in
  Net.send net ~src:0 ~dst:1 (Ping 1);
  Engine.run engine;
  Alcotest.(check int) "delivered twice" 2 (List.length !received)

let test_jitter_reorders () =
  let engine, net = make ~faults:{ Net.loss = 0.; duplicate = 0.; jitter_ms = 200. } () in
  let order = ref [] in
  Net.register net ~node:1 (fun ~src:_ (Ping i) -> order := i :: !order);
  for i = 1 to 50 do
    Net.send net ~src:0 ~dst:1 (Ping i)
  done;
  Engine.run engine;
  let arrived = List.rev !order in
  Alcotest.(check int) "all delivered" 50 (List.length arrived);
  Alcotest.(check bool) "some reordering happened" true (arrived <> List.init 50 (fun i -> i + 1))

let test_crash_drops_inbound () =
  let engine, net = make () in
  let received = collect net 1 in
  Net.crash net 1;
  Net.send net ~src:0 ~dst:1 (Ping 0);
  Engine.run engine;
  Alcotest.(check int) "nothing received" 0 (List.length !received)

let test_crash_drops_outbound () =
  let engine, net = make () in
  let received = collect net 1 in
  Net.crash net 0;
  Net.send net ~src:0 ~dst:1 (Ping 0);
  Engine.run engine;
  Alcotest.(check int) "nothing received" 0 (List.length !received);
  Alcotest.(check int) "not even counted" 0 (Metrics.remote_total (Net.stats net))

let test_in_flight_message_dropped_if_dest_crashes () =
  let engine, net = make () in
  let received = collect net 1 in
  Net.send net ~src:0 ~dst:1 (Ping 0);
  (* Crash the destination while the message is in flight. *)
  ignore (Engine.schedule engine ~delay:10. (fun () -> Net.crash net 1));
  Engine.run engine;
  Alcotest.(check int) "dropped at delivery" 0 (List.length !received)

let test_recovery_restores_delivery () =
  let engine, net = make () in
  let received = collect net 1 in
  Net.crash net 1;
  Net.recover net 1;
  Net.send net ~src:0 ~dst:1 (Ping 0);
  Engine.run engine;
  Alcotest.(check int) "received after recovery" 1 (List.length !received)

let test_status_watchers () =
  let _engine, net = make () in
  let log = ref [] in
  Net.on_status_change net ~node:2 (fun ~up ~wiped:_ -> log := up :: !log);
  Net.crash net 2;
  Net.crash net 2 (* idempotent: no second notification *);
  Net.recover net 2;
  Alcotest.(check (list bool)) "down then up" [ false; true ] (List.rev !log)

(* {2 Amnesia: wipe notification semantics} *)

let watch_wipes net node =
  let log = ref [] in
  Net.on_status_change net ~node (fun ~up ~wiped -> log := (up, wiped) :: !log);
  log

let test_failstop_recovery_not_wiped () =
  let _engine, net = make () in
  let log = watch_wipes net 1 in
  Net.crash net 1;
  Net.recover net 1;
  Alcotest.(check (list (pair bool bool)))
    "fail-stop keeps durable state" [ (false, false); (true, false) ] (List.rev !log)

let test_amnesia_recovery_wiped () =
  let _engine, net = make () in
  let log = watch_wipes net 1 in
  Net.crash_amnesia net 1;
  Net.recover net 1;
  Alcotest.(check (list (pair bool bool)))
    "wipe reported at crash and at recovery" [ (false, true); (true, true) ]
    (List.rev !log)

let test_wipe_pending_across_failstop () =
  (* An amnesia crash on an already-down node still wipes the disk; the
     eventual recovery must report it. *)
  let _engine, net = make () in
  let log = watch_wipes net 1 in
  Net.crash net 1;
  Net.crash_amnesia net 1;
  Net.recover net 1;
  Alcotest.(check (list (pair bool bool)))
    "wipe recorded while down" [ (false, false); (true, true) ] (List.rev !log)

let test_wipe_consumed_by_recovery () =
  (* The wipe flag is consumed: a later fail-stop cycle is clean. *)
  let _engine, net = make () in
  let log = watch_wipes net 1 in
  Net.crash_amnesia net 1;
  Net.recover net 1;
  Net.crash net 1;
  Net.recover net 1;
  Alcotest.(check (list (pair bool bool)))
    "second recovery is not wiped"
    [ (false, true); (true, true); (false, false); (true, false) ]
    (List.rev !log)

(* {2 Gray failure: per-node degradation} *)

let test_degrade_introspection () =
  let _engine, net = make () in
  Alcotest.(check (option (pair (float 0.) (float 0.)))) "initially clear" None
    (Net.degraded net 1);
  Net.degrade_node net 1 ~delay_ms:25. ~loss:0.4;
  Alcotest.(check (option (pair (float 0.) (float 0.))))
    "set" (Some (25., 0.4)) (Net.degraded net 1);
  Net.clear_degrade net 1;
  Alcotest.(check (option (pair (float 0.) (float 0.)))) "cleared" None (Net.degraded net 1);
  Alcotest.check_raises "negative delay rejected"
    (Invalid_argument "Net.degrade_node: negative delay") (fun () ->
      Net.degrade_node net 1 ~delay_ms:(-1.) ~loss:0.);
  Alcotest.check_raises "loss outside [0,1] rejected"
    (Invalid_argument "Net.degrade_node: loss outside [0, 1]") (fun () ->
      Net.degrade_node net 1 ~delay_ms:0. ~loss:1.5)

let test_degrade_adds_delay_both_directions () =
  let engine, net = make () in
  Net.degrade_node net 1 ~delay_ms:100. ~loss:0.;
  let arrivals = ref [] in
  Net.register net ~node:1 (fun ~src:_ _ -> arrivals := ("in", Engine.now engine) :: !arrivals);
  Net.register net ~node:0 (fun ~src:_ _ -> arrivals := ("out", Engine.now engine) :: !arrivals);
  Net.send net ~src:0 ~dst:1 (Ping 0);
  Net.send net ~src:1 ~dst:0 (Ping 1);
  Engine.run engine;
  (* Base server-server delay is 80 ms; the degraded endpoint adds its
     extra latency on every message it sends or receives. *)
  Alcotest.(check (float 1e-9)) "inbound delayed" 180. (List.assoc "in" !arrivals);
  Alcotest.(check (float 1e-9)) "outbound delayed" 180. (List.assoc "out" !arrivals)

let test_degrade_loss_without_unreachability () =
  let engine, net = make () in
  Net.degrade_node net 1 ~delay_ms:0. ~loss:1.0;
  let received = collect net 1 in
  Alcotest.(check bool) "still reachable" true (Net.reachable net ~src:0 ~dst:1);
  for _ = 1 to 10 do
    Net.send net ~src:0 ~dst:1 (Ping 0)
  done;
  Engine.run engine;
  Alcotest.(check int) "all dropped by gray loss" 0 (List.length !received);
  Net.clear_degrade net 1;
  Net.send net ~src:0 ~dst:1 (Ping 1);
  Engine.run engine;
  Alcotest.(check int) "delivered once cleared" 1 (List.length !received)

let test_timer_skipped_when_down () =
  let engine, net = make () in
  let fired = ref false in
  ignore (Net.timer net ~node:0 ~delay_ms:10. (fun () -> fired := true));
  Net.crash net 0;
  Engine.run engine;
  Alcotest.(check bool) "timer skipped" false !fired

let test_timer_from_old_incarnation_skipped () =
  let engine, net = make () in
  let fired = ref false in
  ignore (Net.timer net ~node:0 ~delay_ms:10. (fun () -> fired := true));
  Net.crash net 0;
  Net.recover net 0;
  Engine.run engine;
  Alcotest.(check bool) "old incarnation timer skipped" false !fired

let test_timer_fires_normally () =
  let engine, net = make () in
  let fired_at = ref (-1.) in
  ignore (Net.timer net ~node:0 ~delay_ms:10. (fun () -> fired_at := Engine.now engine));
  Engine.run engine;
  Alcotest.(check (float 0.)) "fires at 10" 10. !fired_at

let test_service_time_fifo_queueing () =
  let engine, net = make () in
  Net.set_service_time net ~ms:10.;
  let deliveries = ref [] in
  Net.register net ~node:1 (fun ~src:_ (Ping i) -> deliveries := (i, Engine.now engine) :: !deliveries);
  (* Three messages arrive together at t=80; the node serves them one
     at a time: completions at 90, 100, 110. *)
  for i = 1 to 3 do
    Net.send net ~src:0 ~dst:1 (Ping i)
  done;
  Engine.run engine;
  (match List.rev !deliveries with
  | [ (1, t1); (2, t2); (3, t3) ] ->
    Alcotest.(check (float 1e-9)) "first" 90. t1;
    Alcotest.(check (float 1e-9)) "second" 100. t2;
    Alcotest.(check (float 1e-9)) "third" 110. t3
  | _ -> Alcotest.fail "three deliveries in order expected")

let test_service_time_idle_resets () =
  let engine, net = make () in
  Net.set_service_time net ~ms:10.;
  let times = ref [] in
  Net.register net ~node:1 (fun ~src:_ _ -> times := Engine.now engine :: !times);
  Net.send net ~src:0 ~dst:1 (Ping 1);
  (* Second message sent long after the first completes: no queueing. *)
  ignore (Engine.schedule engine ~delay:500. (fun () -> Net.send net ~src:0 ~dst:1 (Ping 2)));
  Engine.run engine;
  match List.rev !times with
  | [ t1; t2 ] ->
    Alcotest.(check (float 1e-9)) "first served" 90. t1;
    Alcotest.(check (float 1e-9)) "second not queued" 590. t2
  | _ -> Alcotest.fail "two deliveries expected"

let test_partition_blocks_cross_group () =
  let engine, net = make () in
  let received = collect net 3 in
  Net.partition net [ [ 0; 1 ]; [ 2; 3 ] ];
  Alcotest.(check bool) "0-1 reachable" true (Net.reachable net ~src:0 ~dst:1);
  Alcotest.(check bool) "0-3 blocked" false (Net.reachable net ~src:0 ~dst:3);
  Net.send net ~src:0 ~dst:3 (Ping 0);
  Net.send net ~src:2 ~dst:3 (Ping 1);
  Engine.run engine;
  Alcotest.(check int) "only same-group delivered" 1 (List.length !received)

let test_heal () =
  let engine, net = make () in
  let received = collect net 3 in
  Net.partition net [ [ 0 ]; [ 1; 2; 3 ] ];
  Net.heal net;
  Net.send net ~src:0 ~dst:3 (Ping 0);
  Engine.run engine;
  Alcotest.(check int) "delivered after heal" 1 (List.length !received)

let test_unlisted_nodes_form_implicit_group () =
  let _engine, net = make () in
  Net.partition net [ [ 0 ] ];
  Alcotest.(check bool) "1 and 2 together" true (Net.reachable net ~src:1 ~dst:2);
  Alcotest.(check bool) "0 isolated" false (Net.reachable net ~src:0 ~dst:1)

(* {2 Per-link faults, one-way cuts, flapping} *)

let test_oneway_cut () =
  let engine, net = make () in
  let fwd = collect net 1 in
  let back = collect net 0 in
  Net.cut net ~src:0 ~dst:1;
  Alcotest.(check bool) "0->1 cut" false (Net.reachable net ~src:0 ~dst:1);
  Alcotest.(check bool) "1->0 still open" true (Net.reachable net ~src:1 ~dst:0);
  Net.send net ~src:0 ~dst:1 (Ping 0);
  Net.send net ~src:1 ~dst:0 (Ping 1);
  Engine.run engine;
  Alcotest.(check int) "cut direction dropped" 0 (List.length !fwd);
  Alcotest.(check int) "reverse direction delivered" 1 (List.length !back)

let test_uncut_restores () =
  let engine, net = make () in
  let received = collect net 1 in
  Net.cut net ~src:0 ~dst:1;
  Net.uncut net ~src:0 ~dst:1;
  Alcotest.(check bool) "no longer cut" false (Net.is_cut net ~src:0 ~dst:1);
  Net.send net ~src:0 ~dst:1 (Ping 0);
  Engine.run engine;
  Alcotest.(check int) "delivered after uncut" 1 (List.length !received)

let test_link_fault_override () =
  let engine, net = make () in
  let to1 = collect net 1 in
  let to2 = collect net 2 in
  let back = collect net 0 in
  (* Only the 0->1 direction is lossy; the reverse direction and other
     links keep the (fault-free) global model. *)
  Net.set_link_faults net ~src:0 ~dst:1
    (Some { Net.loss = 1.0; duplicate = 0.; jitter_ms = 0. });
  Net.send net ~src:0 ~dst:1 (Ping 0);
  Net.send net ~src:1 ~dst:0 (Ping 1);
  Net.send net ~src:0 ~dst:2 (Ping 2);
  Engine.run engine;
  Alcotest.(check int) "overridden link lossy" 0 (List.length !to1);
  Alcotest.(check int) "reverse unaffected" 1 (List.length !back);
  Alcotest.(check int) "other links unaffected" 1 (List.length !to2);
  (* Clearing the override restores the global model. *)
  Net.set_link_faults net ~src:0 ~dst:1 None;
  Net.send net ~src:0 ~dst:1 (Ping 3);
  Engine.run engine;
  Alcotest.(check int) "restored" 1 (List.length !to1)

let test_flap_link () =
  let engine, net = make () in
  let probe = ref [] in
  let schedule_probe at =
    ignore
      (Engine.schedule engine ~delay:at (fun () ->
           probe := (at, Net.is_cut net ~src:0 ~dst:1) :: !probe))
  in
  (* 50 ms up / 50 ms down until t=480: up [0,50), down [50,100), ... *)
  Net.flap_link net ~src:0 ~dst:1 ~up_ms:50. ~down_ms:50. ~until_ms:480.;
  List.iter schedule_probe [ 25.; 75.; 125.; 600. ];
  Engine.run engine;
  let at t = List.assoc t !probe in
  Alcotest.(check bool) "up phase" false (at 25.);
  Alcotest.(check bool) "down phase" true (at 75.);
  Alcotest.(check bool) "up again" false (at 125.);
  Alcotest.(check bool) "restored after deadline" false (at 600.)

let test_heal_clears_cuts_and_flaps () =
  let engine, net = make () in
  Net.cut net ~src:0 ~dst:1;
  Net.flap_link net ~src:2 ~dst:3 ~up_ms:10. ~down_ms:10. ~until_ms:10_000.;
  Net.partition net [ [ 0 ] ];
  Net.heal net;
  Alcotest.(check bool) "cut cleared" true (Net.reachable net ~src:0 ~dst:1);
  Alcotest.(check bool) "partition cleared" true (Net.reachable net ~src:0 ~dst:2);
  (* The flap schedule is dead: the link stays up from now on. *)
  ignore
    (Engine.schedule engine ~delay:5_000. (fun () ->
         Alcotest.(check bool) "flap stopped" false (Net.is_cut net ~src:2 ~dst:3)));
  Engine.run engine

(* Property: [reachable] must agree with what [deliver_pending]
   actually does, across any interleaving of partitions, heals,
   one-way cuts, fail-stop and amnesia crash/recover, link flapping,
   and gray degradation (which slows and drops but must never sever:
   a degraded node stays reachable). *)
let prop_reachable_matches_delivery =
  QCheck.Test.make ~name:"reachable agrees with deliver_pending" ~count:100
    QCheck.(pair int64 (int_range 5 40))
    (fun (seed, steps) ->
      let engine = Engine.create ~seed () in
      let topo = Topology.make ~n_servers:4 ~n_clients:1 () in
      let net = Net.create engine topo ~classify () in
      let rng = Dq_util.Rng.create (Int64.add seed 17L) in
      let nodes = 5 in
      Net.set_manual net true;
      let ok = ref true in
      for _ = 1 to steps do
        (match Dq_util.Rng.int rng 10 with
        | 0 ->
          Net.cut net ~src:(Dq_util.Rng.int rng nodes) ~dst:(Dq_util.Rng.int rng nodes)
        | 1 ->
          Net.uncut net ~src:(Dq_util.Rng.int rng nodes) ~dst:(Dq_util.Rng.int rng nodes)
        | 2 -> Net.partition net [ [ Dq_util.Rng.int rng nodes ] ]
        | 3 -> Net.heal net
        | 4 -> Net.crash net (Dq_util.Rng.int rng nodes)
        | 5 -> Net.recover net (Dq_util.Rng.int rng nodes)
        | 6 -> Net.crash_amnesia net (Dq_util.Rng.int rng nodes)
        | 7 ->
          Net.degrade_node net
            (Dq_util.Rng.int rng nodes)
            ~delay_ms:(Dq_util.Rng.float rng 50.)
            ~loss:(Dq_util.Rng.float rng 1.)
        | 8 -> Net.clear_degrade net (Dq_util.Rng.int rng nodes)
        | 9 ->
          let src = Dq_util.Rng.int rng nodes in
          let dst = Dq_util.Rng.int rng nodes in
          if src <> dst then begin
            Net.flap_link net ~src ~dst ~up_ms:5. ~down_ms:5.
              ~until_ms:(Engine.now engine +. 40.);
            (* let a few flap phases elapse so probes see both states *)
            Engine.run ~until:(Engine.now engine +. Dq_util.Rng.float rng 60.) engine
          end
        | _ -> ());
        (* After every mutation, a probe on each ordered pair of live
           nodes must be delivered exactly when the directed link is
           reachable. *)
        for src = 0 to nodes - 1 do
          for dst = 0 to nodes - 1 do
            if src <> dst && Net.is_up net src && Net.is_up net dst then begin
              let delivered = ref false in
              Net.register net ~node:dst (fun ~src:_ _ -> delivered := true);
              Net.send net ~src ~dst (Ping 0);
              Net.deliver_pending net 0;
              if !delivered <> Net.reachable net ~src ~dst then ok := false
            end
          done
        done
      done;
      !ok)

let test_stats_by_label () =
  let engine, net = make () in
  ignore (collect net 1);
  Net.send net ~src:0 ~dst:1 (Ping 0);
  Net.send net ~src:0 ~dst:0 (Ping 0);
  Engine.run engine;
  let stats = Net.stats net in
  Alcotest.(check int) "remote" 1 (Metrics.remote_total stats);
  Alcotest.(check int) "local" 1 (Metrics.local_total stats);
  Alcotest.(check int) "total" 2 (Metrics.total stats);
  Alcotest.(check (list (pair string int))) "labels" [ ("ping", 1) ] (Metrics.by_label stats)

(* {2 Retention and allocation} *)

(* The watched payloads are allocated in separate functions so that no
   local root of the test holds them. *)
let[@inline never] send_watched net ~weak =
  let payload = Bytes.make 64 'x' in
  Weak.set weak 0 (Some payload);
  Net.send net ~src:0 ~dst:1 payload;
  Net.timer net ~node:0 ~delay_ms:30. (fun () -> ignore (Sys.opaque_identity payload))

(* A delivered message and a fired timer's action are collectable once
   their events are done, even while the timer's handle is still held. *)
let test_delivered_and_fired_released () =
  let engine = Engine.create ~seed:1L () in
  let topo = Topology.make ~n_servers:2 ~n_clients:0 () in
  let net = Net.create engine topo ~classify:(fun _ -> "blob") () in
  let weak = Weak.create 1 in
  let delivered = ref 0 in
  Net.register net ~node:1 (fun ~src:_ _ -> incr delivered);
  let handle = send_watched net ~weak in
  Engine.run engine;
  Alcotest.(check int) "delivered" 1 !delivered;
  Alcotest.(check int) "timer fired" 2 (Engine.events_executed engine);
  Gc.full_major ();
  Alcotest.(check bool) "message and action collected" false (Weak.check weak 0);
  Alcotest.(check bool) "handle spent" false (Engine.is_pending handle)

let[@inline never] arm_watched net ~weak =
  let payload = Bytes.make 64 'x' in
  Weak.set weak 0 (Some payload);
  Net.timer net ~node:0 ~delay_ms:1000. (fun () -> ignore (Sys.opaque_identity payload))

(* A cancelled node timer releases its action at once, not at its due
   time: retry timers are cancelled by the thousand. *)
let test_cancelled_timer_released () =
  let engine, net = make () in
  let weak = Weak.create 1 in
  let handle = arm_watched net ~weak in
  Engine.cancel handle;
  Gc.full_major ();
  Alcotest.(check bool) "action collected before the due time" false (Weak.check weak 0);
  Alcotest.(check (float 0.)) "no time passed" 0. (Engine.now engine);
  Engine.run engine;
  Alcotest.(check int) "cancelled timer never executes" 0 (Engine.events_executed engine)

(* Minor-heap words per Net.send and its delivery, as perfbench's
   [net.send_deliver] micro measures them: 11. A send allocates its
   delivery event and the boxed delay and due time; no per-send
   closure, and no boxed byte count or fault probability. *)
let test_send_deliver_allocation () =
  let engine = Engine.create ~seed:1L () in
  let net = Net.create engine (Topology.make ~n_servers:2 ~n_clients:0 ()) ~classify () in
  let delivered = ref 0 in
  Net.register net ~node:1 (fun ~src:_ _ -> incr delivered);
  let msg = Ping 0 in
  let batch () =
    for _ = 1 to 1000 do
      Net.send net ~src:0 ~dst:1 msg
    done;
    Engine.run engine
  in
  for _ = 1 to 5 do
    batch ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 5 do
    batch ()
  done;
  let words = (Gc.minor_words () -. before) /. 5000. in
  Alcotest.(check int) "all delivered" 10_000 !delivered;
  if words > 12. then Alcotest.failf "%.1f words per send and delivery, budget 12" words

let () =
  Alcotest.run "net"
    [
      ( "delivery",
        [
          Alcotest.test_case "delay" `Quick test_delivery_and_delay;
          Alcotest.test_case "local" `Quick test_local_delivery;
          Alcotest.test_case "sender id" `Quick test_sender_id_passed;
        ] );
      ( "faults",
        [
          Alcotest.test_case "loss" `Quick test_loss;
          Alcotest.test_case "duplication" `Quick test_duplication;
          Alcotest.test_case "jitter reorders" `Quick test_jitter_reorders;
        ] );
      ( "crashes",
        [
          Alcotest.test_case "inbound dropped" `Quick test_crash_drops_inbound;
          Alcotest.test_case "outbound dropped" `Quick test_crash_drops_outbound;
          Alcotest.test_case "in-flight dropped" `Quick
            test_in_flight_message_dropped_if_dest_crashes;
          Alcotest.test_case "recovery" `Quick test_recovery_restores_delivery;
          Alcotest.test_case "status watchers" `Quick test_status_watchers;
          Alcotest.test_case "timer skipped when down" `Quick test_timer_skipped_when_down;
          Alcotest.test_case "old incarnation timer" `Quick
            test_timer_from_old_incarnation_skipped;
          Alcotest.test_case "timer fires" `Quick test_timer_fires_normally;
        ] );
      ( "amnesia",
        [
          Alcotest.test_case "fail-stop not wiped" `Quick test_failstop_recovery_not_wiped;
          Alcotest.test_case "amnesia wiped" `Quick test_amnesia_recovery_wiped;
          Alcotest.test_case "wipe pending across fail-stop" `Quick
            test_wipe_pending_across_failstop;
          Alcotest.test_case "wipe consumed by recovery" `Quick test_wipe_consumed_by_recovery;
        ] );
      ( "gray degradation",
        [
          Alcotest.test_case "introspection" `Quick test_degrade_introspection;
          Alcotest.test_case "adds delay both directions" `Quick
            test_degrade_adds_delay_both_directions;
          Alcotest.test_case "loss without unreachability" `Quick
            test_degrade_loss_without_unreachability;
        ] );
      ( "partitions",
        [
          Alcotest.test_case "blocks cross group" `Quick test_partition_blocks_cross_group;
          Alcotest.test_case "heal" `Quick test_heal;
          Alcotest.test_case "implicit group" `Quick test_unlisted_nodes_form_implicit_group;
        ] );
      ( "links",
        [
          Alcotest.test_case "one-way cut" `Quick test_oneway_cut;
          Alcotest.test_case "uncut restores" `Quick test_uncut_restores;
          Alcotest.test_case "per-link fault override" `Quick test_link_fault_override;
          Alcotest.test_case "flapping" `Quick test_flap_link;
          Alcotest.test_case "heal clears cuts and flaps" `Quick
            test_heal_clears_cuts_and_flaps;
          QCheck_alcotest.to_alcotest prop_reachable_matches_delivery;
        ] );
      ("stats", [ Alcotest.test_case "by label" `Quick test_stats_by_label ]);
      ( "resources",
        [
          Alcotest.test_case "delivered and fired released" `Quick
            test_delivered_and_fired_released;
          Alcotest.test_case "cancelled timer released" `Quick test_cancelled_timer_released;
          Alcotest.test_case "send-deliver allocation" `Quick test_send_deliver_allocation;
        ] );
      ( "queueing",
        [
          Alcotest.test_case "fifo service" `Quick test_service_time_fifo_queueing;
          Alcotest.test_case "idle resets" `Quick test_service_time_idle_resets;
        ] );
    ]
