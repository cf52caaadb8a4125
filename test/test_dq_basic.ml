(* The basic dual-quorum protocol (Section 3.1): object callbacks only,
   no volume leases. Its defining weakness - writes block while an OQS
   node holding a callback is unreachable - is asserted here and
   contrasted with DQVL in test_dqvl.ml. *)

module Engine = Dq_sim.Engine
module Topology = Dq_net.Topology
module Net = Dq_net.Net
module Metrics = Dq_telemetry.Metrics
module Cluster = Dq_core.Cluster
module Config = Dq_core.Config
module R = Dq_intf.Replication
open Dq_storage

let key = Key.make ~volume:0 ~index:0

let setup () =
  let engine = Engine.create ~seed:21L () in
  let topology = Topology.make ~n_servers:5 ~n_clients:2 () in
  let servers = Topology.servers topology in
  let cluster = Cluster.create engine topology (Config.basic ~servers ()) in
  (engine, topology, cluster, Cluster.api cluster)

let test_write_then_read () =
  let engine, _, _, api = setup () in
  let read_value = ref None in
  api.R.submit_write ~client:5 ~server:0 key "hello" (fun _ ->
      api.R.submit_read ~client:5 ~server:1 key (fun r ->
          read_value := Some r.R.read_value));
  Engine.run engine;
  Alcotest.(check (option string)) "reads the write" (Some "hello") !read_value

let test_read_before_any_write () =
  let engine, _, _, api = setup () in
  let result = ref None in
  api.R.submit_read ~client:5 ~server:2 key (fun r ->
      result := Some (r.R.read_value, Lc.equal r.R.read_lc Lc.zero));
  Engine.run engine;
  Alcotest.(check (option (pair string bool))) "initial value" (Some ("", true)) !result

let test_second_read_is_hit () =
  let engine, _, cluster, api = setup () in
  let t2 = ref (0., 0.) in
  api.R.submit_read ~client:5 ~server:0 key (fun _ ->
      let start2 = Engine.now engine in
      api.R.submit_read ~client:5 ~server:0 key (fun _ ->
          t2 := (start2, Engine.now engine)));
  Engine.run engine;
  let start2, end2 = !t2 in
  (* A read hit involves only client <-> front end (LAN) plus local OQS
     access: ~16 ms, far below the ~176 ms renewal cost. *)
  Alcotest.(check bool) "hit is local" true (end2 -. start2 < 20.);
  match Cluster.oqs_server cluster 0 with
  | Some oqs -> Alcotest.(check bool) "valid at OQS" true (Dq_core.Oqs_server.is_locally_valid oqs key)
  | None -> Alcotest.fail "server 0 must host an OQS role"

let test_write_invalidates_cached_copy () =
  let engine, _, cluster, api = setup () in
  let sequence = ref [] in
  api.R.submit_read ~client:5 ~server:0 key (fun r ->
      sequence := ("read1", r.R.read_value) :: !sequence;
      api.R.submit_write ~client:6 ~server:1 key "v2" (fun _ ->
          sequence := ("write", "v2") :: !sequence;
          (* After the write completed, server 0's cached copy must be
             invalid (basic protocol: it was invalidated directly). *)
          (match Cluster.oqs_server cluster 0 with
          | Some oqs ->
            if Dq_core.Oqs_server.is_locally_valid oqs key then
              sequence := ("still-valid!", "") :: !sequence
          | None -> ());
          api.R.submit_read ~client:5 ~server:0 key (fun r ->
              sequence := ("read2", r.R.read_value) :: !sequence)));
  Engine.run engine;
  Alcotest.(check (list (pair string string)))
    "invalidation then fresh read"
    [ ("read1", ""); ("write", "v2"); ("read2", "v2") ]
    (List.rev !sequence)

let test_write_blocks_while_callback_holder_down () =
  let engine, _, _, api = setup () in
  let write_done = ref false in
  (* Server 4 acquires a callback via a read, then crashes. *)
  api.R.submit_read ~client:5 ~server:4 key (fun _ ->
      api.R.crash_server 4;
      api.R.submit_write ~client:6 ~server:1 key "v2" (fun _ -> write_done := true));
  Engine.run ~until:120_000. engine;
  Alcotest.(check bool) "write blocked without volume leases" false !write_done;
  (* Recovery lets the invalidation be acknowledged. *)
  api.R.recover_server 4;
  Engine.run ~until:360_000. engine;
  Alcotest.(check bool) "write completes after recovery" true !write_done

let test_write_suppress_no_invalidations () =
  let engine, _, cluster, api = setup () in
  let inval_count () =
    match List.assoc_opt "inval" (Metrics.by_label (Net.stats (Cluster.net cluster))) with
    | Some n -> n
    | None -> 0
  in
  (* Early writes may be write-throughs: each write lands on a random
     IQS write quorum, and a member that has not yet collected
     invalidation acknowledgments conservatively invalidates. Once every
     IQS node has participated once, a write burst is fully suppressed:
     the final write adds no invalidation traffic. *)
  let counts = ref [] in
  let rec burst i =
    if i < 8 then
      api.R.submit_write ~client:5 ~server:0 key (Printf.sprintf "v%d" i) (fun _ ->
          counts := inval_count () :: !counts;
          burst (i + 1))
  in
  burst 0;
  Engine.run engine;
  match !counts with
  | last :: prev :: _ ->
    Alcotest.(check int) "suppressed write sends no invalidations" prev last
  | _ -> Alcotest.fail "writes must complete"

let test_concurrent_writers_ordered () =
  let engine, _, _, api = setup () in
  let lcs = ref [] in
  api.R.submit_write ~client:5 ~server:0 key "a" (fun w -> lcs := w.R.write_lc :: !lcs);
  api.R.submit_write ~client:6 ~server:1 key "b" (fun w -> lcs := w.R.write_lc :: !lcs);
  Engine.run engine;
  (match !lcs with
  | [ x; y ] -> Alcotest.(check bool) "distinct timestamps" false (Lc.equal x y)
  | _ -> Alcotest.fail "both writes must complete");
  (* A subsequent read returns the value of the larger timestamp. *)
  let winner = ref None in
  api.R.submit_read ~client:5 ~server:2 key (fun r -> winner := Some (r.R.read_value, r.R.read_lc)) ;
  Engine.run engine;
  match !winner, !lcs with
  | Some (_, rlc), [ x; y ] ->
    Alcotest.(check bool) "read returns max-lc write" true (Lc.equal rlc (Lc.max x y))
  | _ -> Alcotest.fail "read must complete"

let () =
  Alcotest.run "dq_basic"
    [
      ( "unit",
        [
          Alcotest.test_case "write then read" `Quick test_write_then_read;
          Alcotest.test_case "initial read" `Quick test_read_before_any_write;
          Alcotest.test_case "read hit" `Quick test_second_read_is_hit;
          Alcotest.test_case "write invalidates" `Quick test_write_invalidates_cached_copy;
          Alcotest.test_case "write blocks on crashed callback holder" `Quick
            test_write_blocks_while_callback_holder_down;
          Alcotest.test_case "write suppress" `Quick test_write_suppress_no_invalidations;
          Alcotest.test_case "concurrent writers" `Quick test_concurrent_writers_ordered;
        ] );
    ]
