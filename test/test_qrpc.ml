(* QRPC over a real simulated network: a coordinator node sends echo
   requests to a quorum system of responder nodes and gathers replies. *)

module Engine = Dq_sim.Engine
module Topology = Dq_net.Topology
module Net = Dq_net.Net
module Qs = Dq_quorum.Quorum_system
module Qrpc = Dq_rpc.Qrpc

type msg = Req | Rep

let classify = function Req -> "req" | Rep -> "rep"

(* Node 0 is the coordinator; nodes 1..n are responders. *)
let setup ?faults ~n () =
  let engine = Engine.create ~seed:2L () in
  let topo = Topology.make ~n_servers:(n + 1) ~n_clients:0 () in
  let net = Net.create engine topo ?faults ~classify () in
  Net.register net ~node:0 (fun ~src:_ _ -> ());
  for node = 1 to n do
    Net.register net ~node (fun ~src msg ->
        match msg with Req -> Net.send net ~src:node ~dst:src Rep | Rep -> ())
  done;
  (engine, net)

let start_call ?(mode = Qrpc.Read) ?prefer ~engine ~net ~system ~on_quorum () =
  let call = ref None in
  let c =
    Qrpc.call
      ~timer:(fun ~delay_ms action -> Net.timer net ~node:0 ~delay_ms action)
      ~rng:(Engine.split_rng engine) ~system ~mode
      ~send:(fun dst -> Net.send net ~src:0 ~dst Req)
      ~on_quorum ?prefer ~timeout_ms:500. ()
  in
  call := Some c;
  (* Route replies to the call. *)
  Net.register net ~node:0 (fun ~src msg ->
      match msg, !call with Rep, Some c -> Qrpc.deliver c ~src Rep | _ -> ());
  c

let test_gathers_read_quorum () =
  let engine, net = setup ~n:5 () in
  let system = Qs.majority [ 1; 2; 3; 4; 5 ] in
  let result = ref None in
  let _c =
    start_call ~engine ~net ~system
      ~on_quorum:(fun replies -> result := Some (List.length replies))
      ()
  in
  Engine.run engine;
  Alcotest.(check (option int)) "majority of 5" (Some 3) !result

let test_write_quorum_rowa () =
  let engine, net = setup ~n:4 () in
  let system = Qs.rowa [ 1; 2; 3; 4 ] in
  let result = ref None in
  let _c =
    start_call ~mode:Qrpc.Write ~engine ~net ~system
      ~on_quorum:(fun replies -> result := Some (List.length replies))
      ()
  in
  Engine.run engine;
  Alcotest.(check (option int)) "all four" (Some 4) !result

let test_succeeds_under_loss () =
  let engine, net =
    setup ~faults:{ Net.loss = 0.4; duplicate = 0.; jitter_ms = 0. } ~n:5 ()
  in
  let system = Qs.majority [ 1; 2; 3; 4; 5 ] in
  let done_at = ref None in
  let _c =
    start_call ~engine ~net ~system
      ~on_quorum:(fun _ -> done_at := Some (Engine.now engine))
      ()
  in
  Engine.run ~until:60_000. engine;
  Alcotest.(check bool) "eventually completed" true (!done_at <> None)

let test_succeeds_with_f_crashes () =
  let engine, net = setup ~n:5 () in
  Net.crash net 1;
  Net.crash net 2;
  let system = Qs.majority [ 1; 2; 3; 4; 5 ] in
  let result = ref None in
  let _c =
    start_call ~engine ~net ~system
      ~on_quorum:(fun replies -> result := Some (List.map fst replies |> List.sort compare))
      ()
  in
  Engine.run ~until:60_000. engine;
  Alcotest.(check (option (list int))) "survivors form the quorum" (Some [ 3; 4; 5 ]) !result

let test_blocks_without_quorum () =
  let engine, net = setup ~n:3 () in
  Net.crash net 1;
  Net.crash net 2;
  let system = Qs.majority [ 1; 2; 3 ] in
  let completed = ref false in
  let _c =
    start_call ~engine ~net ~system ~on_quorum:(fun _ -> completed := true) ()
  in
  Engine.run ~until:10_000. engine;
  Alcotest.(check bool) "still waiting" false !completed;
  (* Recovery unblocks it (the next retransmission rounds reach the
     recovered node). *)
  Net.recover net 1;
  Engine.run ~until:600_000. engine;
  Alcotest.(check bool) "completed after recovery" true !completed

let test_duplicate_replies_counted_once () =
  let engine, net =
    setup ~faults:{ Net.loss = 0.; duplicate = 1.0; jitter_ms = 0. } ~n:3 ()
  in
  let system = Qs.majority [ 1; 2; 3 ] in
  let result = ref None in
  let _c =
    start_call ~engine ~net ~system
      ~on_quorum:(fun replies -> result := Some (List.length replies))
      ()
  in
  Engine.run engine;
  match !result with
  | Some n -> Alcotest.(check bool) "2 or 3 distinct responders" true (n = 2 || n = 3)
  | None -> Alcotest.fail "did not complete"

let test_replies_from_strangers_ignored () =
  let engine, net = setup ~n:4 () in
  let system = Qs.majority [ 1; 2; 3 ] in
  let c =
    start_call ~engine ~net ~system ~on_quorum:(fun _ -> ()) ()
  in
  (* Node 4 is not a member; a forged reply from it must not count. *)
  Qrpc.deliver c ~src:4 Rep;
  Alcotest.(check int) "no replies recorded" 0 (List.length (Qrpc.replies c));
  Engine.run engine

let test_give_up () =
  let engine, net = setup ~n:3 () in
  Net.crash net 1;
  Net.crash net 2;
  Net.crash net 3;
  let system = Qs.majority [ 1; 2; 3 ] in
  let gave_up = ref false in
  let call = ref None in
  let c =
    Qrpc.call
      ~timer:(fun ~delay_ms action -> Net.timer net ~node:0 ~delay_ms action)
      ~rng:(Engine.split_rng engine) ~system ~mode:Qrpc.Read
      ~send:(fun dst -> Net.send net ~src:0 ~dst Req)
      ~on_quorum:(fun _ -> Alcotest.fail "must not complete")
      ~timeout_ms:100. ~max_rounds:3
      ~on_give_up:(fun () -> gave_up := true)
      ()
  in
  call := Some c;
  Engine.run engine;
  Alcotest.(check bool) "gave up" true !gave_up

let test_prefer_included () =
  (* With prefer = a member node, every attempt contacts it. Use a
     system where node 0 (the coordinator itself) is a member. *)
  let engine = Engine.create ~seed:3L () in
  let topo = Topology.make ~n_servers:4 ~n_clients:0 () in
  let net = Net.create engine topo ~classify () in
  let self_requests = ref 0 in
  let current = ref None in
  Net.register net ~node:0 (fun ~src msg ->
      match msg with
      | Req ->
        incr self_requests;
        Net.send net ~src:0 ~dst:src Rep
      | Rep -> ( match !current with Some c -> Qrpc.deliver c ~src Rep | None -> ()));
  for node = 1 to 3 do
    Net.register net ~node (fun ~src msg ->
        match msg with Req -> Net.send net ~src:node ~dst:src Rep | Rep -> ())
  done;
  let system = Qs.majority [ 0; 1; 2; 3 ] in
  let completed = ref 0 in
  let rec launch i =
    if i < 20 then begin
      let c =
        Qrpc.call
          ~timer:(fun ~delay_ms action -> Net.timer net ~node:0 ~delay_ms action)
          ~rng:(Engine.split_rng engine) ~system ~mode:Qrpc.Read
          ~send:(fun dst -> Net.send net ~src:0 ~dst Req)
          ~on_quorum:(fun _ ->
            incr completed;
            launch (i + 1))
          ~prefer:0 ~timeout_ms:10_000. ()
      in
      current := Some c
    end
  in
  launch 0;
  Engine.run engine;
  Alcotest.(check int) "all calls completed" 20 !completed;
  Alcotest.(check int) "self contacted every time" 20 !self_requests

let test_escalates_to_all_members_on_retry () =
  (* Round 0 contacts a minimal quorum; the first retransmission must
     contact every member that has not replied ("send to all nodes"). *)
  let engine = Engine.create ~seed:9L () in
  let topo = Topology.make ~n_servers:8 ~n_clients:0 () in
  let net = Net.create engine topo ~classify () in
  let contacted = Hashtbl.create 8 in
  Net.register net ~node:0 (fun ~src:_ _ -> ());
  for node = 1 to 7 do
    (* Nobody replies: force retransmissions. *)
    Net.register net ~node (fun ~src:_ msg ->
        match msg with Req -> Hashtbl.replace contacted node () | Rep -> ())
  done;
  let system = Qs.majority [ 1; 2; 3; 4; 5; 6; 7 ] in
  let c =
    Qrpc.call
      ~timer:(fun ~delay_ms action -> Net.timer net ~node:0 ~delay_ms action)
      ~rng:(Engine.split_rng engine) ~system ~mode:Qrpc.Read
      ~send:(fun dst -> Net.send net ~src:0 ~dst Req)
      ~on_quorum:(fun _ -> ())
      ~timeout_ms:100. ~max_rounds:2 ()
  in
  ignore c;
  Engine.run engine;
  Alcotest.(check int) "all members contacted after one retry" 7 (Hashtbl.length contacted)

let test_untracked_policy_keeps_hitting_slow_member () =
  (* Control experiment: the random policy keeps paying the slow member
     in some rounds. *)
  let engine = Engine.create ~seed:61L () in
  let delay ~src ~dst =
    let d node = if node = 3 then 200. else 10. in
    if src = dst then 0.05 else Float.max (d src) (d dst) /. 2.
  in
  let topo = Topology.custom ~n_servers:4 ~n_clients:0 ~delay ~closest:(fun c -> c) in
  let net = Net.create engine topo ~classify () in
  Net.register net ~node:0 (fun ~src:_ _ -> ());
  for node = 1 to 3 do
    Net.register net ~node (fun ~src msg ->
        match msg with Req -> Net.send net ~src:node ~dst:src Rep | Rep -> ())
  done;
  let system = Qs.majority [ 1; 2; 3 ] in
  let latencies = ref [] in
  let current = ref None in
  Net.register net ~node:0 (fun ~src msg ->
      match msg, !current with
      | Rep, Some c -> Qrpc.deliver c ~src Rep
      | _ -> ());
  let rec run_call i =
    if i < 20 then begin
      let start = Engine.now engine in
      let c =
        Qrpc.call
          ~timer:(fun ~delay_ms action -> Net.timer net ~node:0 ~delay_ms action)
          ~rng:(Engine.split_rng engine) ~system ~mode:Qrpc.Read
          ~send:(fun dst -> Net.send net ~src:0 ~dst Req)
          ~on_quorum:(fun _ ->
            latencies := (Engine.now engine -. start) :: !latencies;
            run_call (i + 1))
          ~timeout_ms:5_000. ()
      in
      current := Some c
    end
  in
  run_call 0;
  Engine.run engine;
  let slow_calls = List.filter (fun l -> l > 100.) !latencies in
  Alcotest.(check bool) "random policy pays the slow member sometimes" true
    (List.length slow_calls > 0)

let () =
  Alcotest.run "qrpc"
    [
      ( "unit",
        [
          Alcotest.test_case "gathers read quorum" `Quick test_gathers_read_quorum;
          Alcotest.test_case "rowa write quorum" `Quick test_write_quorum_rowa;
          Alcotest.test_case "survives loss" `Quick test_succeeds_under_loss;
          Alcotest.test_case "survives crashes" `Quick test_succeeds_with_f_crashes;
          Alcotest.test_case "blocks without quorum" `Quick test_blocks_without_quorum;
          Alcotest.test_case "duplicates once" `Quick test_duplicate_replies_counted_once;
          Alcotest.test_case "strangers ignored" `Quick test_replies_from_strangers_ignored;
          Alcotest.test_case "give up" `Quick test_give_up;
          Alcotest.test_case "prefer" `Quick test_prefer_included;
          Alcotest.test_case "escalation" `Quick test_escalates_to_all_members_on_retry;
        ] );
      ( "integration",
        [
          Alcotest.test_case "random policy control" `Quick
            test_untracked_policy_keeps_hitting_slow_member;
        ] );
    ]
