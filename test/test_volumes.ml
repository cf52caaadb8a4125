(* Volume semantics: leases are per volume, invalidations per object.
   Objects grouped into one volume share lease renewals (that is the
   amortization argument of the paper), while distinct volumes are
   isolated from each other's lease expiry and epochs. *)

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

let key ~volume ~index = Key.make ~volume ~index

let setup () =
  let engine = Engine.create ~seed:51L () in
  let topology = Topology.make ~n_servers:5 ~n_clients:2 () in
  let servers = Topology.servers topology in
  let config = Config.dqvl ~servers ~volume_lease_ms:2_000. ~proactive_renew:false () in
  let cluster = Cluster.create engine topology config in
  (engine, cluster, Cluster.api cluster)

let vol_renew_count cluster =
  match
    List.assoc_opt "vol_renew_req" (Metrics.by_label (Net.stats (Cluster.net cluster)))
  with
  | Some n -> n
  | None -> 0

let test_same_volume_shares_lease () =
  (* After reading object 0 of volume 0, reading object 1 of the same
     volume needs object renewals but no further volume renewals. *)
  let engine, cluster, api = setup () in
  let renewals = ref [] in
  api.R.submit_read ~client:5 ~server:0 (key ~volume:0 ~index:0) (fun _ ->
      renewals := vol_renew_count cluster :: !renewals;
      api.R.submit_read ~client:5 ~server:0 (key ~volume:0 ~index:1) (fun _ ->
          renewals := vol_renew_count cluster :: !renewals));
  Engine.run ~until:10_000. engine;
  match List.rev !renewals with
  | [ after_first; after_second ] ->
    Alcotest.(check bool) "first read renews the volume" true (after_first > 0);
    Alcotest.(check int) "second object reuses the volume lease" after_first after_second
  | _ -> Alcotest.fail "both reads must complete"

let test_different_volume_needs_own_lease () =
  let engine, cluster, api = setup () in
  let renewals = ref [] in
  api.R.submit_read ~client:5 ~server:0 (key ~volume:0 ~index:0) (fun _ ->
      renewals := vol_renew_count cluster :: !renewals;
      api.R.submit_read ~client:5 ~server:0 (key ~volume:7 ~index:0) (fun _ ->
          renewals := vol_renew_count cluster :: !renewals));
  Engine.run ~until:10_000. engine;
  match List.rev !renewals with
  | [ after_first; after_second ] ->
    Alcotest.(check bool) "second volume pays its own renewals" true
      (after_second > after_first)
  | _ -> Alcotest.fail "both reads must complete"

let test_epoch_is_per_volume_and_peer () =
  (* Overflow volume 0's delayed queue for a partitioned node; volume
     1's epoch at the same IQS node must be untouched. *)
  let engine = Engine.create ~seed:52L () in
  let topology = Topology.make ~n_servers:5 ~n_clients:2 () in
  let servers = Topology.servers topology in
  let config =
    {
      (Config.dqvl ~servers ~volume_lease_ms:1_000. ~proactive_renew:false ()) with
      Config.max_delayed = 1;
    }
  in
  let cluster = Cluster.create engine topology config in
  let api = Cluster.api cluster in
  let net = Cluster.net cluster in
  let stale = 4 in
  let keys0 = List.init 3 (fun i -> key ~volume:0 ~index:i) in
  let epochs = ref None in
  let rec warm = function
    | [] ->
      Net.partition net [ [ stale ]; [ 0; 1; 2; 3; 5; 6 ] ];
      write_all keys0
    | k :: rest -> api.R.submit_read ~client:5 ~server:stale k (fun _ -> warm rest)
  and write_all = function
    | [] ->
      (match Cluster.iqs_server cluster 0 with
      | Some iqs ->
        epochs :=
          Some (Iqs.epoch iqs ~volume:0 ~oqs:stale, Iqs.epoch iqs ~volume:1 ~oqs:stale)
      | None -> ());
      Net.heal net
    | k :: rest -> api.R.submit_write ~client:6 ~server:1 k "x" (fun _ -> write_all rest)
  in
  warm keys0;
  Engine.run ~until:300_000. engine;
  match !epochs with
  | Some (v0_epoch, v1_epoch) ->
    Alcotest.(check bool) "volume 0 epoch advanced" true (v0_epoch >= 1);
    Alcotest.(check int) "volume 1 epoch untouched" 0 v1_epoch
  | None -> Alcotest.fail "epochs not sampled"

let test_invalidations_do_not_cross_objects () =
  (* Writing object 0 leaves a cached object 1 of the same volume valid. *)
  let engine, cluster, api = setup () in
  let validity = ref None in
  api.R.submit_read ~client:5 ~server:0 (key ~volume:0 ~index:0) (fun _ ->
      api.R.submit_read ~client:5 ~server:0 (key ~volume:0 ~index:1) (fun _ ->
          api.R.submit_write ~client:6 ~server:1 (key ~volume:0 ~index:0) "w" (fun _ ->
              match Cluster.oqs_server cluster 0 with
              | Some oqs ->
                validity :=
                  Some
                    ( Oqs.is_locally_valid oqs (key ~volume:0 ~index:0),
                      Oqs.is_locally_valid oqs (key ~volume:0 ~index:1) )
              | None -> ())));
  Engine.run ~until:10_000. engine;
  match !validity with
  | Some (written, untouched) ->
    Alcotest.(check bool) "written object invalidated" false written;
    Alcotest.(check bool) "sibling object still valid" true untouched
  | None -> Alcotest.fail "validity not sampled"

(* Proactive renewal across many volumes, with and without batching:
   batching must cut the renewal request count while keeping every
   lease fresh. *)
let renewal_traffic ~batch =
  let engine = Engine.create ~seed:54L () in
  let topology = Topology.make ~n_servers:5 ~n_clients:1 () in
  let servers = Topology.servers topology in
  let config =
    {
      (Config.dqvl ~servers ~volume_lease_ms:1_000. ~proactive_renew:true ()) with
      Config.batch_renewals = batch;
    }
  in
  let cluster = Cluster.create engine topology config in
  let api = Cluster.api cluster in
  let volumes = [ 0; 1; 2; 3; 4; 5 ] in
  (* Touch one object in each volume so node 0 holds all the leases. *)
  let rec touch = function
    | [] -> ()
    | v :: rest ->
      api.R.submit_read ~client:5 ~server:0 (key ~volume:v ~index:0) (fun _ -> touch rest)
  in
  touch volumes;
  (* Let proactive renewal run for a while. *)
  Engine.run ~until:20_000. engine;
  let stats = Net.stats (Cluster.net cluster) in
  let count label =
    Option.value (List.assoc_opt label (Metrics.by_label stats)) ~default:0
  in
  api.R.quiesce ();
  (* All leases must still be valid at the end in both modes. *)
  (match Cluster.oqs_server cluster 0 with
  | Some oqs ->
    List.iter
      (fun v ->
        Alcotest.(check bool)
          (Printf.sprintf "volume %d lease fresh (batch=%b)" v batch)
          true
          (List.exists
             (fun i -> Dq_core.Oqs_server.volume_valid_from oqs ~volume:v ~iqs:i)
             servers))
      volumes
  | None -> Alcotest.fail "no OQS");
  count "vol_renew_req" + count "vols_renew_req"

let test_batched_renewals_cut_traffic () =
  let unbatched = renewal_traffic ~batch:false in
  let batched = renewal_traffic ~batch:true in
  Alcotest.(check bool)
    (Printf.sprintf "batched (%d) well below unbatched (%d)" batched unbatched)
    true
    (float_of_int batched < 0.5 *. float_of_int unbatched)

let test_workload_volume_mapping_end_to_end () =
  (* A workload spreading objects over two volumes runs cleanly and
     stays regular. *)
  let engine = Engine.create ~seed:53L () in
  let topology = Topology.make ~n_servers:5 ~n_clients:3 () in
  let builder = Dq_harness.Registry.dqvl ~volume_lease_ms:2_000. ~proactive_renew:false () in
  let instance = builder.Dq_harness.Registry.build engine topology () in
  let spec =
    {
      Dq_workload.Spec.default with
      Dq_workload.Spec.write_ratio = 0.3;
      sharing = Dq_workload.Spec.Shared_uniform { objects = 6 };
      volume_of = (fun index -> index mod 2);
    }
  in
  let config =
    { (Dq_harness.Driver.default_config spec) with Dq_harness.Driver.ops_per_client = 60 }
  in
  let result = Dq_harness.Driver.run engine topology instance.Dq_harness.Registry.api config in
  let report = Dq_harness.Regular_checker.check result.Dq_harness.Driver.history in
  Alcotest.(check int) "no failures" 0 result.Dq_harness.Driver.failed;
  Alcotest.(check int) "regular" 0 (List.length report.Dq_harness.Regular_checker.violations)

let () =
  Alcotest.run "volumes"
    [
      ( "unit",
        [
          Alcotest.test_case "shared lease within volume" `Quick test_same_volume_shares_lease;
          Alcotest.test_case "separate volumes separate leases" `Quick
            test_different_volume_needs_own_lease;
          Alcotest.test_case "epoch per volume and peer" `Quick
            test_epoch_is_per_volume_and_peer;
          Alcotest.test_case "invalidation per object" `Quick
            test_invalidations_do_not_cross_objects;
          Alcotest.test_case "two-volume workload" `Slow test_workload_volume_mapping_end_to_end;
          Alcotest.test_case "batched renewals" `Quick test_batched_renewals_cut_traffic;
        ] );
    ]
