(* Message-level unit tests of the IQS and OQS server state machines,
   mirroring the paper's pseudocode (Figures 4 and 5) case by case.
   Servers are driven directly through [handle]; outgoing messages are
   captured by sink handlers on the peer nodes. *)

module Engine = Dq_sim.Engine
module Topology = Dq_net.Topology
module Net = Dq_net.Net
module Clock = Dq_sim.Clock
module Config = Dq_core.Config
module M = Dq_core.Message
module Iqs = Dq_core.Iqs_server
module Oqs = Dq_core.Oqs_server
open Dq_storage

let key = Key.make ~volume:0 ~index:0

let lc c = Lc.make ~count:c ~node:9

(* Node 0 hosts the server under test; messages it sends to nodes 1 and
   2 are captured. *)
type world = {
  engine : Engine.t;
  net : M.t Net.t;
  config : Config.t;
  sent : (int * M.t) list ref; (* (destination, message), oldest first *)
}

let make_world () =
  let engine = Engine.create ~seed:3L () in
  let topology = Topology.make ~n_servers:3 ~n_clients:1 () in
  let servers = Topology.servers topology in
  let config = Config.dqvl ~servers ~volume_lease_ms:1_000. ~proactive_renew:false () in
  let net = Net.create engine topology ~classify:M.classify () in
  let sent = ref [] in
  List.iter
    (fun node -> Net.register net ~node (fun ~src:_ msg -> sent := (node, msg) :: !sent))
    [ 1; 2; 3 ];
  { engine; net; config; sent }

let flush w = Engine.run ~until:(Engine.now w.engine +. 10_000.) w.engine

let captured w = List.rev !(w.sent)

let make_iqs w = Iqs.create ~net:w.net ~clock:(Clock.perfect w.engine) ~config:w.config ~me:0

let make_oqs w =
  Oqs.create ~net:w.net ~clock:(Clock.perfect w.engine) ~config:w.config
    ~rng:(Engine.split_rng w.engine) ~me:0

(* --- IQS: processLCReadRequest / processWriteRequest ------------------- *)

let test_iqs_lc_read_returns_global_clock () =
  let w = make_world () in
  let iqs = make_iqs w in
  Iqs.handle iqs ~src:1 (M.Lc_read_req { op = 7 });
  flush w;
  match captured w with
  | [ (1, M.Lc_read_reply { op = 7; lc }) ] ->
    Alcotest.(check bool) "initial clock is zero" true (Lc.equal lc Lc.zero)
  | _ -> Alcotest.fail "expected one Lc_read_reply to node 1"

let test_iqs_write_applies_only_newer () =
  let w = make_world () in
  let iqs = make_iqs w in
  Iqs.handle iqs ~src:1 (M.Iqs_write_req { op = 1; key; value = "new"; lc = lc 5 });
  Alcotest.(check string) "applied" "new" (Iqs.stored iqs key).Versioned.value;
  (* An older write must not clobber the value... *)
  Iqs.handle iqs ~src:1 (M.Iqs_write_req { op = 2; key; value = "old"; lc = lc 3 });
  Alcotest.(check string) "not regressed" "new" (Iqs.stored iqs key).Versioned.value;
  (* ...but is still acknowledged (it is ordered before the newer one). *)
  flush w;
  let acks =
    List.filter (fun (_, m) -> match m with M.Iqs_write_ack _ -> true | _ -> false) (captured w)
  in
  Alcotest.(check int) "both writes acknowledged" 2 (List.length acks);
  Alcotest.(check bool) "global clock advanced" true (Lc.equal (Iqs.logical_clock iqs) (lc 5))

let test_iqs_obj_renewal_grants_and_tracks () =
  let w = make_world () in
  let iqs = make_iqs w in
  Iqs.handle iqs ~src:1 (M.Iqs_write_req { op = 1; key; value = "v"; lc = lc 2 });
  Iqs.handle iqs ~src:1 (M.Obj_renew_req { key; t0 = 0. });
  flush w;
  let grants =
    List.filter_map
      (fun (dst, m) -> match m with M.Obj_renew_reply { grant } -> Some (dst, grant) | _ -> None)
      (captured w)
  in
  (match grants with
  | [ (1, grant) ] ->
    Alcotest.(check string) "grant carries the value" "v" grant.M.g_value;
    Alcotest.(check bool) "grant carries lastWriteLC" true (Lc.equal grant.M.g_lc (lc 2))
  | _ -> Alcotest.fail "expected one grant to node 1");
  (* lastReadLC := lastWriteLC at grant time. *)
  Alcotest.(check bool) "lastReadLC bumped" true (Lc.equal (Iqs.last_read_lc iqs key) (lc 2))

let test_iqs_suppress_vs_through () =
  let w = make_world () in
  let iqs = make_iqs w in
  (* Node 1 acknowledges an invalidation newer than any grant: i now
     knows node 1 holds no valid callback, so a later write needs no
     invalidation to it (write suppress, case a). *)
  Iqs.handle iqs ~src:1 (M.Inval_ack { key; lc = lc 1 });
  Alcotest.(check bool) "ack recorded" true (Lc.equal (Iqs.last_ack_lc iqs key ~oqs:1) (lc 1));
  Iqs.handle iqs ~src:2 (M.Inval_ack { key; lc = lc 1 });
  Iqs.handle iqs ~src:0 (M.Inval_ack { key; lc = lc 1 });
  w.sent := [];
  Iqs.handle iqs ~src:3 (M.Iqs_write_req { op = 9; key; value = "w"; lc = lc 2 });
  flush w;
  let invals =
    List.filter (fun (_, m) -> match m with M.Inval _ -> true | _ -> false) (captured w)
  in
  Alcotest.(check int) "suppressed: no invalidations" 0 (List.length invals);
  let acked =
    List.exists
      (fun (dst, m) -> dst = 3 && match m with M.Iqs_write_ack { op = 9; _ } -> true | _ -> false)
      (captured w)
  in
  Alcotest.(check bool) "write acknowledged" true acked

let test_iqs_vol_renewal_carries_delayed_invals () =
  let w = make_world () in
  let iqs = make_iqs w in
  (* Grant node 1 a volume lease, let it expire, then write: the
     invalidation must be queued as delayed and delivered with node 1's
     next renewal. *)
  Iqs.handle iqs ~src:1 (M.Vol_renew_req { volume = 0; t0 = 0.; want = None; epoch = 0 });
  Iqs.handle iqs ~src:1 (M.Obj_renew_req { key; t0 = 0. });
  flush w;
  (* Advance past the 1 s lease. *)
  ignore (Engine.schedule w.engine ~delay:2_000. (fun () -> ()));
  Engine.run w.engine;
  w.sent := [];
  Iqs.handle iqs ~src:3 (M.Iqs_write_req { op = 1; key; value = "w"; lc = lc 4 });
  flush w;
  Alcotest.(check int) "one delayed invalidation queued" 1
    (Iqs.delayed_count iqs ~volume:0 ~oqs:1);
  let direct_invals_to_1 =
    List.filter (fun (dst, m) -> dst = 1 && match m with M.Inval _ -> true | _ -> false)
      (captured w)
  in
  Alcotest.(check int) "no direct invalidation to expired node" 0
    (List.length direct_invals_to_1);
  (* The renewal delivers it... *)
  w.sent := [];
  Iqs.handle iqs ~src:1 (M.Vol_renew_req { volume = 0; t0 = 2_000.; want = None; epoch = 0 });
  flush w;
  (match
     List.filter_map
       (fun (dst, m) ->
         match m with M.Vol_renew_reply { delayed; _ } when dst = 1 -> Some delayed | _ -> None)
       (captured w)
   with
  | [ [ (k, klc) ] ] ->
    Alcotest.(check bool) "delayed inval for the key" true (Key.equal k key);
    Alcotest.(check bool) "at the write's clock" true (Lc.equal klc (lc 4))
  | _ -> Alcotest.fail "expected one renewal reply with one delayed invalidation");
  (* ...and the acknowledgment clears the queue. *)
  Iqs.handle iqs ~src:1 (M.Vol_renew_ack { volume = 0; upto = lc 4 });
  Alcotest.(check int) "queue cleared" 0 (Iqs.delayed_count iqs ~volume:0 ~oqs:1)

let test_iqs_epoch_advances_on_overflow () =
  let w = make_world () in
  let config = { w.config with Config.max_delayed = 2 } in
  let iqs = Iqs.create ~net:w.net ~clock:(Clock.perfect w.engine) ~config ~me:0 in
  Iqs.handle iqs ~src:1 (M.Vol_renew_req { volume = 0; t0 = 0.; want = None; epoch = 0 });
  (* Install callbacks on three objects. *)
  let keys = List.init 3 (fun i -> Key.make ~volume:0 ~index:i) in
  List.iter (fun k -> Iqs.handle iqs ~src:1 (M.Obj_renew_req { key = k; t0 = 0. })) keys;
  ignore (Engine.schedule w.engine ~delay:2_000. (fun () -> ()));
  Engine.run w.engine;
  List.iteri
    (fun i k ->
      Iqs.handle iqs ~src:3
        (M.Iqs_write_req { op = i; key = k; value = "w"; lc = lc (i + 1) }))
    keys;
  flush w;
  Alcotest.(check int) "epoch advanced" 1 (Iqs.epoch iqs ~volume:0 ~oqs:1);
  Alcotest.(check bool) "queue within bound" true
    (Iqs.delayed_count iqs ~volume:0 ~oqs:1 <= 2)

(* --- OQS: processInval / processRenewReply / processVLRenewReply -------- *)

let test_oqs_inval_is_monotone () =
  let w = make_world () in
  let oqs = make_oqs w in
  Oqs.handle oqs ~src:1 (M.Inval { key; lc = lc 5 });
  (* A stale invalidation must not regress the per-node clock. *)
  Oqs.handle oqs ~src:1 (M.Inval { key; lc = lc 3 });
  flush w;
  let acks =
    List.filter_map
      (fun (dst, m) -> match m with M.Inval_ack { lc; _ } when dst = 1 -> Some lc | _ -> None)
      (captured w)
  in
  Alcotest.(check int) "both invalidations acknowledged" 2 (List.length acks);
  Alcotest.(check bool) "object invalid" false (Oqs.object_valid_from oqs key ~iqs:1)

let test_oqs_stale_grant_does_not_validate () =
  (* The guard on line 42 of Figure 5: a renewal reply older than an
     already-received invalidation must not mark the object valid. *)
  let w = make_world () in
  let oqs = make_oqs w in
  Oqs.handle oqs ~src:1 (M.Inval { key; lc = lc 5 });
  Oqs.handle oqs ~src:1
    (M.Obj_renew_reply
       { grant = { M.g_key = key; g_epoch = 0; g_lc = lc 3; g_value = "stale";
                   g_lease_ms = infinity; g_t0 = 0. } });
  Alcotest.(check bool) "still invalid" false (Oqs.object_valid_from oqs key ~iqs:1);
  (* A grant at (or beyond) the invalidation's clock validates. *)
  Oqs.handle oqs ~src:1
    (M.Obj_renew_reply
       { grant = { M.g_key = key; g_epoch = 0; g_lc = lc 5; g_value = "fresh";
                   g_lease_ms = infinity; g_t0 = 0. } });
  Alcotest.(check bool) "validated by equal clock" true (Oqs.object_valid_from oqs key ~iqs:1);
  Alcotest.(check string) "value is the freshest" "fresh" (Oqs.cached oqs key).Versioned.value

let test_oqs_vol_reply_applies_delayed_and_acks () =
  let w = make_world () in
  let oqs = make_oqs w in
  (* Validate the object first. *)
  Oqs.handle oqs ~src:1
    (M.Obj_renew_reply
       { grant = { M.g_key = key; g_epoch = 0; g_lc = lc 1; g_value = "v1";
                   g_lease_ms = infinity; g_t0 = 0. } });
  Oqs.handle oqs ~src:1
    (M.Vol_renew_reply
       { volume = 0; lease_ms = 1_000.; epoch = 0; t0 = 0.; delayed = [ (key, lc 4) ];
         grant = None });
  Alcotest.(check bool) "volume valid" true (Oqs.volume_valid_from oqs ~volume:0 ~iqs:1);
  Alcotest.(check bool) "delayed invalidation applied" false
    (Oqs.object_valid_from oqs key ~iqs:1);
  flush w;
  let acks =
    List.filter_map
      (fun (dst, m) ->
        match m with M.Vol_renew_ack { upto; _ } when dst = 1 -> Some upto | _ -> None)
      (captured w)
  in
  match acks with
  | [ upto ] -> Alcotest.(check bool) "acked up to the delayed clock" true (Lc.equal upto (lc 4))
  | _ -> Alcotest.fail "expected one volume renewal acknowledgment"

let test_oqs_epoch_mismatch_invalidates () =
  let w = make_world () in
  let oqs = make_oqs w in
  Oqs.handle oqs ~src:1
    (M.Obj_renew_reply
       { grant = { M.g_key = key; g_epoch = 0; g_lc = lc 1; g_value = "v";
                   g_lease_ms = infinity; g_t0 = 0. } });
  Oqs.handle oqs ~src:1
    (M.Vol_renew_reply
       { volume = 0; lease_ms = 1_000.; epoch = 0; t0 = 0.; delayed = []; grant = None });
  Alcotest.(check bool) "valid under epoch 0" true (Oqs.object_valid_from oqs key ~iqs:1);
  (* A renewal with a higher epoch retires every object lease at once. *)
  Oqs.handle oqs ~src:1
    (M.Vol_renew_reply
       { volume = 0; lease_ms = 1_000.; epoch = 1; t0 = 1.; delayed = []; grant = None });
  Alcotest.(check bool) "epoch mismatch invalidates" false
    (Oqs.object_valid_from oqs key ~iqs:1)

let test_oqs_expired_volume_blocks_validity () =
  let w = make_world () in
  let oqs = make_oqs w in
  Oqs.handle oqs ~src:1
    (M.Vol_renew_reply
       { volume = 0; lease_ms = 1_000.; epoch = 0; t0 = 0.; delayed = []; grant = None });
  Alcotest.(check bool) "valid now" true (Oqs.volume_valid_from oqs ~volume:0 ~iqs:1);
  ignore (Engine.schedule w.engine ~delay:2_000. (fun () -> ()));
  Engine.run w.engine;
  Alcotest.(check bool) "expired later" false (Oqs.volume_valid_from oqs ~volume:0 ~iqs:1)

(* --- Front ends: duplicate client requests ------------------------------ *)

(* The network may duplicate a client request; a front end must run each
   client operation once. Both front-end families are driven through the
   same four cases. [started ()] counts the client operations the front
   end has set running (for the DQVL front end, since its last
   recovery). The application client is node 3. *)
type front_end = {
  write_req : src:int -> op:int -> unit;
  read_req : src:int -> op:int -> unit;
  started : unit -> int;
  recover : unit -> unit;
}

let client = 3

let dqvl_front_end () =
  let w = make_world () in
  let fe =
    Dq_core.Frontend.create ~net:w.net ~config:w.config ~rng:(Engine.split_rng w.engine) ~me:0
  in
  {
    write_req =
      (fun ~src ~op ->
        Dq_core.Frontend.handle fe ~src (M.Client_write_req { op; key; value = "v" }));
    read_req = (fun ~src ~op -> Dq_core.Frontend.handle fe ~src (M.Client_read_req { op; key }));
    started = (fun () -> Dq_core.Frontend.pending_operations fe);
    recover = (fun () -> Dq_core.Frontend.on_recover fe);
  }

(* A primary/backup front end forwards each operation it starts to the
   primary (node 1) exactly once: retransmission is far off. *)
let base_front_end () =
  let module BM = Dq_proto.Base_msg in
  let module Fe = Dq_proto.Base_frontend in
  let engine = Engine.create ~seed:3L () in
  let topology = Topology.make ~n_servers:3 ~n_clients:1 () in
  let net = Net.create engine topology ~classify:BM.classify () in
  let forwarded = ref 0 in
  Net.register net ~node:1 (fun ~src:_ msg ->
      match msg with BM.Fwd_write_req _ | BM.Read_req _ -> incr forwarded | _ -> ());
  let fe =
    Fe.create ~net ~rng:(Engine.split_rng engine) ~me:0 ~style:(Fe.Forward { primary = 1 })
      ~retry_timeout_ms:1e9 ()
  in
  {
    write_req = (fun ~src ~op -> Fe.handle fe ~src (BM.Client_write_req { op; key; value = "v" }));
    read_req =
      (fun ~src ~op -> Fe.handle fe ~src (BM.Client_read_req { op; key; floor = Lc.zero }));
    started =
      (fun () ->
        Engine.run ~until:(Engine.now engine +. 1_000.) engine;
        !forwarded);
    recover = (fun () -> Fe.on_recover fe);
  }

let test_duplicate_write_runs_once make () =
  let fe = make () in
  fe.write_req ~src:client ~op:0;
  fe.write_req ~src:client ~op:0;
  Alcotest.(check int) "one write started" 1 (fe.started ());
  fe.read_req ~src:client ~op:0;
  Alcotest.(check int) "a read under the same op id is a duplicate too" 1 (fe.started ());
  fe.write_req ~src:1 ~op:0;
  Alcotest.(check int) "another client's op 0 is fresh" 2 (fe.started ())

let test_out_of_order_ops_fresh make () =
  let fe = make () in
  fe.write_req ~src:client ~op:5;
  fe.read_req ~src:client ~op:4;
  Alcotest.(check int) "5 then 4: both fresh" 2 (fe.started ());
  fe.write_req ~src:client ~op:5;
  fe.read_req ~src:client ~op:4;
  Alcotest.(check int) "repeats of both suppressed" 2 (fe.started ())

let test_op_past_bitset_grows make () =
  let fe = make () in
  fe.read_req ~src:client ~op:3;
  fe.read_req ~src:client ~op:100_000;
  Alcotest.(check int) "far op id fresh" 2 (fe.started ());
  fe.read_req ~src:client ~op:100_000;
  fe.read_req ~src:client ~op:3;
  Alcotest.(check int) "both remembered after growth" 2 (fe.started ());
  fe.read_req ~src:client ~op:99_999;
  Alcotest.(check int) "its neighbour is still fresh" 3 (fe.started ())

let test_recover_forgets make () =
  let fe = make () in
  fe.write_req ~src:client ~op:0;
  fe.read_req ~src:client ~op:7;
  Alcotest.(check int) "two started" 2 (fe.started ());
  fe.recover ();
  let before = fe.started () in
  fe.write_req ~src:client ~op:0;
  fe.read_req ~src:client ~op:7;
  Alcotest.(check int) "both fresh after recovery" (before + 2) (fe.started ());
  fe.write_req ~src:client ~op:0;
  Alcotest.(check int) "and remembered again" (before + 2) (fe.started ())

let duplicate_cases name make =
  ( name,
    [
      Alcotest.test_case "duplicate write runs once" `Quick (test_duplicate_write_runs_once make);
      Alcotest.test_case "out-of-order ops fresh" `Quick (test_out_of_order_ops_fresh make);
      Alcotest.test_case "op past bitset grows it" `Quick (test_op_past_bitset_grows make);
      Alcotest.test_case "recovery forgets" `Quick (test_recover_forgets make);
    ] )

let () =
  Alcotest.run "server_units"
    [
      ( "iqs (figure 4)",
        [
          Alcotest.test_case "lc read" `Quick test_iqs_lc_read_returns_global_clock;
          Alcotest.test_case "write ordering" `Quick test_iqs_write_applies_only_newer;
          Alcotest.test_case "object renewal" `Quick test_iqs_obj_renewal_grants_and_tracks;
          Alcotest.test_case "suppress vs through" `Quick test_iqs_suppress_vs_through;
          Alcotest.test_case "delayed invalidations" `Quick
            test_iqs_vol_renewal_carries_delayed_invals;
          Alcotest.test_case "epoch overflow" `Quick test_iqs_epoch_advances_on_overflow;
        ] );
      ( "oqs (figure 5)",
        [
          Alcotest.test_case "inval monotone" `Quick test_oqs_inval_is_monotone;
          Alcotest.test_case "stale grant guard" `Quick test_oqs_stale_grant_does_not_validate;
          Alcotest.test_case "volume reply" `Quick test_oqs_vol_reply_applies_delayed_and_acks;
          Alcotest.test_case "epoch mismatch" `Quick test_oqs_epoch_mismatch_invalidates;
          Alcotest.test_case "volume expiry" `Quick test_oqs_expired_volume_blocks_validity;
        ] );
      duplicate_cases "dqvl front end duplicates" dqvl_front_end;
      duplicate_cases "base front end duplicates" base_front_end;
    ]
