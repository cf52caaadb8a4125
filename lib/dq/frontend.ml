open Dq_storage
module Net = Dq_net.Net
module Qrpc = Dq_rpc.Qrpc

type pending =
  | Oqs_read of (string * Lc.t) Qrpc.t
  | Lc_read of Lc.t Qrpc.t
  | Iqs_write of Lc.t Qrpc.t

type t = {
  net : Message.t Net.t;
  bus : Dq_telemetry.Bus.t;
  config : Config.t;
  rng : Dq_util.Rng.t;
  me : int;
  mutable next_op : int;
  mutable last_issued : Lc.t;
  mutable pending : (int, pending) Hashtbl.t;
  mutable seen_client_ops : Dq_util.Seen_ops.t; (* duplicate suppression *)
}

let create ~net ~config ~rng ~me =
  {
    net;
    bus = Dq_sim.Engine.telemetry (Net.engine net);
    config;
    rng;
    me;
    next_op = 0;
    last_issued = Lc.zero;
    pending = Hashtbl.create 16;
    seen_client_ops = Dq_util.Seen_ops.create ();
  }

let fresh_op t =
  let op = t.next_op in
  t.next_op <- op + 1;
  op

let send t dst msg = Net.send t.net ~src:t.me ~dst msg

let timer t ~delay_ms action = Net.timer t.net ~node:t.me ~delay_ms action

(* Atomic-read imposition (paper future work): push the value about to
   be returned through an IQS write quorum with its own timestamp. Each
   IQS node re-runs the ensure-invalid step for that timestamp, which
   guarantees no OQS write quorum can still serve an older version —
   so no later read can observe one (no new-old inversion). *)
let impose t ~key ~value ~lc ~on_done ~on_fail =
  let op = fresh_op t in
  let call =
    Qrpc.call ~timer:(timer t) ~rng:t.rng ~system:t.config.iqs ~mode:Qrpc.Write
      ~send:(fun dst -> send t dst (Message.Iqs_write_req { op; key; value; lc }))
      ~on_quorum:(fun _ ->
        Hashtbl.remove t.pending op;
        on_done ~value ~lc)
      ~prefer:t.me ?strategy:t.config.iqs_write_strategy
      ~timeout_ms:t.config.retry_timeout_ms
      ~backoff:t.config.retry_backoff ?max_rounds:t.config.max_rounds
      ~on_give_up:(fun () ->
        Hashtbl.remove t.pending op;
        on_fail ())
      ~bus:t.bus ~node:t.me ~tag:"fe.impose" ()
  in
  Hashtbl.replace t.pending op (Iqs_write call)

let read t ~key ~on_done ~on_fail =
  let op = fresh_op t in
  let call =
    Qrpc.call ~timer:(timer t) ~rng:t.rng ~system:t.config.oqs ~mode:Qrpc.Read
      ~send:(fun dst -> send t dst (Message.Oqs_read_req { op; key }))
      ~on_quorum:(fun replies ->
        Hashtbl.remove t.pending op;
        let best =
          List.fold_left
            (fun acc (_, (value, lc)) ->
              match acc with
              | Some (_, best_lc) when Lc.(best_lc >= lc) -> acc
              | Some _ | None -> Some (value, lc))
            None replies
        in
        match best with
        | Some (value, lc) ->
          if t.config.atomic_reads then impose t ~key ~value ~lc ~on_done ~on_fail
          else on_done ~value ~lc
        | None -> () (* a quorum always has at least one reply *))
      ~prefer:t.me ~timeout_ms:t.config.retry_timeout_ms
      ~backoff:t.config.retry_backoff ?max_rounds:t.config.max_rounds
      ~on_give_up:(fun () ->
        Hashtbl.remove t.pending op;
        on_fail ())
      ~bus:t.bus ~node:t.me ~tag:"fe.read" ()
  in
  Hashtbl.replace t.pending op (Oqs_read call)

let write t ~key ~value ~on_done ~on_fail =
  (* Phase 1: highest logical clock of any completed write, from an IQS
     read quorum. *)
  let op1 = fresh_op t in
  let phase2 max_lc =
    let wlc = Lc.succ (Lc.max max_lc t.last_issued) ~node:t.me in
    if Dq_telemetry.Bus.subscribed t.bus then
      Dq_telemetry.Bus.emit t.bus
        (Dq_telemetry.Event.Note
           {
             src = "dq.frontend";
             msg =
               lazy
                 (Format.asprintf "node %d: write %a assigned lc=%a" t.me Key.pp key
                    Lc.pp wlc);
           });
    t.last_issued <- wlc;
    let op2 = fresh_op t in
    let call =
      Qrpc.call ~timer:(timer t) ~rng:t.rng ~system:t.config.iqs ~mode:Qrpc.Write
        ~send:(fun dst -> send t dst (Message.Iqs_write_req { op = op2; key; value; lc = wlc }))
        ~on_quorum:(fun _replies ->
          Hashtbl.remove t.pending op2;
          on_done ~lc:wlc)
        ~prefer:t.me ?strategy:t.config.iqs_write_strategy
        ~timeout_ms:t.config.retry_timeout_ms
        ~backoff:t.config.retry_backoff ?max_rounds:t.config.max_rounds
        ~on_give_up:(fun () ->
          Hashtbl.remove t.pending op2;
          on_fail ())
        ~bus:t.bus ~node:t.me ~tag:"fe.write" ()
    in
    Hashtbl.replace t.pending op2 (Iqs_write call)
  in
  let call =
    Qrpc.call ~timer:(timer t) ~rng:t.rng ~system:t.config.iqs ~mode:Qrpc.Read
      ~send:(fun dst -> send t dst (Message.Lc_read_req { op = op1 }))
      ~on_quorum:(fun replies ->
        Hashtbl.remove t.pending op1;
        let max_lc = List.fold_left (fun acc (_, lc) -> Lc.max acc lc) Lc.zero replies in
        phase2 max_lc)
      ~prefer:t.me ?strategy:t.config.iqs_read_strategy
      ~timeout_ms:t.config.retry_timeout_ms
      ~backoff:t.config.retry_backoff ?max_rounds:t.config.max_rounds
      ~on_give_up:(fun () ->
        Hashtbl.remove t.pending op1;
        on_fail ())
      ~bus:t.bus ~node:t.me ~tag:"fe.lc_read" ()
  in
  Hashtbl.replace t.pending op1 (Lc_read call)

let deliver_reply t ~src ~op payload =
  match Hashtbl.find_opt t.pending op, payload with
  | Some (Oqs_read call), `Read (value, lc) -> Qrpc.deliver call ~src (value, lc)
  | Some (Lc_read call), `Lc lc -> Qrpc.deliver call ~src lc
  | Some (Iqs_write call), `Ack lc -> Qrpc.deliver call ~src lc
  | Some _, _ | None, _ -> () (* stale or mismatched reply *)

let handle t ~src msg =
  match msg with
  | Message.Oqs_read_reply { op; value; lc; _ } -> deliver_reply t ~src ~op (`Read (value, lc))
  | Message.Lc_read_reply { op; lc } -> deliver_reply t ~src ~op (`Lc lc)
  | Message.Iqs_write_ack { op; lc; _ } -> deliver_reply t ~src ~op (`Ack lc)
  | Message.Client_read_req { op; key } ->
    if Dq_util.Seen_ops.add_fresh t.seen_client_ops ~client:src ~op then
      read t ~key
        ~on_done:(fun ~value ~lc ->
          send t src (Message.Client_read_reply { op; key; value; lc }))
        ~on_fail:(fun () -> send t src (Message.Client_read_fail { op; key }))
  | Message.Client_write_req { op; key; value } ->
    if Dq_util.Seen_ops.add_fresh t.seen_client_ops ~client:src ~op then
      write t ~key ~value
        ~on_done:(fun ~lc -> send t src (Message.Client_write_reply { op; key; lc }))
        ~on_fail:(fun () -> send t src (Message.Client_write_fail { op; key }))
  | Message.Client_read_fail _ | Message.Client_write_fail _ | Message.Client_read_reply _
  | Message.Client_write_reply _ | Message.Oqs_read_req _
  | Message.Lc_read_req _ | Message.Iqs_write_req _ | Message.Obj_renew_req _
  | Message.Obj_renew_reply _ | Message.Vol_renew_req _ | Message.Vol_renew_reply _
  | Message.Vol_renew_ack _ | Message.Vols_renew_req _ | Message.Vols_renew_reply _
  | Message.Inval _ | Message.Inval_ack _ | Message.Sync_req _ | Message.Sync_resp _ ->
    ()

let on_recover t =
  t.pending <- Hashtbl.create 16;
  t.seen_client_ops <- Dq_util.Seen_ops.create ()

let pending_operations t = Hashtbl.length t.pending
