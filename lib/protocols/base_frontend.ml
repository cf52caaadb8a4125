open Dq_storage
module Net = Dq_net.Net
module Qs = Dq_quorum.Quorum_system
module Strategy = Dq_quorum.Strategy
module Qrpc = Dq_rpc.Qrpc

type style =
  | Forward of { primary : int }
  | Two_phase of { system : Qs.t; atomic_reads : bool }
  | Local_session of { replica : int }
      (* ROWA-Async with session guarantees: a read is answered from the
         local replica only once it has caught up to the client
         session's floor (epidemic propagation closes the gap) *)

type pending =
  | Read of (string * Lc.t) Qrpc.t
  | Lc_read of Lc.t Qrpc.t
  | Write of Lc.t Qrpc.t

type t = {
  net : Base_msg.t Net.t;
  bus : Dq_telemetry.Bus.t;
  rng : Dq_util.Rng.t;
  me : int;
  style : style;
  read_strategy : Strategy.t option;
  write_strategy : Strategy.t option;
  retry_timeout_ms : float;
  mutable next_op : int;
  mutable last_issued : Lc.t;
  mutable pending : (int, pending) Hashtbl.t;
  mutable seen_client_ops : Dq_util.Seen_ops.t; (* duplicate suppression *)
}

let create ?read_strategy ?write_strategy ~net ~rng ~me ~style ~retry_timeout_ms () =
  {
    net;
    bus = Dq_sim.Engine.telemetry (Net.engine net);
    rng;
    me;
    style;
    read_strategy;
    write_strategy;
    retry_timeout_ms;
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

let target_system t =
  match t.style with
  | Forward { primary } ->
    Qs.threshold ~name:"primary" ~members:[ primary ] ~read:1 ~write:1
  | Two_phase { system; _ } -> system
  | Local_session { replica } ->
    Qs.threshold ~name:"local" ~members:[ replica ] ~read:1 ~write:1

(* A configured strategy applies only to calls against the quorum system
   it was built over (the Two_phase system); forwarding and local-session
   styles build fresh single-node systems per call and keep the legacy
   path. *)
let strategy_for t ~system mode =
  let candidate = match mode with Qrpc.Read -> t.read_strategy | Qrpc.Write -> t.write_strategy in
  match candidate with
  | Some s when Strategy.system s == system -> Some s
  | Some _ | None -> None

(* ABD read-impose: push the value the read is about to return to a
   write quorum, so no later read can observe an older version. The
   write-back reuses the ordinary timestamped write path and is
   idempotent at the replicas (last-writer-wins on the logical clock). *)
let impose t ~system ~key ~value ~lc ~on_done =
  let op = fresh_op t in
  let call =
    Qrpc.call ~timer:(timer t) ~rng:t.rng ~system ~mode:Qrpc.Write
      ~send:(fun dst -> send t dst (Base_msg.Write_req { op; key; value; lc }))
      ~on_quorum:(fun _ ->
        Hashtbl.remove t.pending op;
        on_done ~value ~lc)
      ~prefer:t.me ?strategy:(strategy_for t ~system Qrpc.Write)
      ~timeout_ms:t.retry_timeout_ms ~bus:t.bus ~node:t.me ~tag:"base.impose" ()
  in
  Hashtbl.replace t.pending op (Write call)

(* Session-guaranteed read: poll the local replica until its copy
   reaches the session floor (read-your-writes / monotonic reads), then
   answer. Epidemic propagation or anti-entropy closes the gap. *)
let read_with_floor t ~key ~floor ~on_done =
  let best = ref None in
  let complete () =
    match !best with Some (_, lc) -> Lc.(lc >= floor) | None -> false
  in
  let system = target_system t in
  (* Re-poll the replica until the floor is met. *)
  let rec poll () =
    let op = fresh_op t in
    let call =
      Qrpc.call ~timer:(timer t) ~rng:t.rng ~system ~mode:Qrpc.Read
        ~send:(fun dst -> send t dst (Base_msg.Read_req { op; key }))
        ~on_quorum:(fun replies ->
          Hashtbl.remove t.pending op;
          List.iter
            (fun (_, (value, lc)) ->
              match !best with
              | Some (_, best_lc) when Lc.(best_lc >= lc) -> ()
              | Some _ | None -> best := Some (value, lc))
            replies;
          if complete () then begin
            match !best with
            | Some (value, lc) -> on_done ~value ~lc
            | None -> ()
          end
          else
            (* Wait for propagation, then look again. *)
            ignore (timer t ~delay_ms:(t.retry_timeout_ms /. 2.) poll))
        ~prefer:t.me ?strategy:(strategy_for t ~system Qrpc.Read)
        ~timeout_ms:t.retry_timeout_ms ~bus:t.bus ~node:t.me ~tag:"base.read_floor" ()
    in
    Hashtbl.replace t.pending op (Read call)
  in
  poll ()

let read ?(floor = Lc.zero) t ~key ~on_done =
  match t.style with
  | Local_session _ when Lc.(floor > Lc.zero) -> read_with_floor t ~key ~floor ~on_done
  | Forward _ | Two_phase _ | Local_session _ ->
  let op = fresh_op t in
  let system = target_system t in
  let atomic = match t.style with Two_phase { atomic_reads; _ } -> atomic_reads | Forward _ | Local_session _ -> false in
  let call =
    Qrpc.call ~timer:(timer t) ~rng:t.rng ~system ~mode:Qrpc.Read
      ~send:(fun dst -> send t dst (Base_msg.Read_req { op; key }))
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
          if atomic then impose t ~system ~key ~value ~lc ~on_done
          else on_done ~value ~lc
        | None -> ())
      ~prefer:t.me ?strategy:(strategy_for t ~system Qrpc.Read)
      ~timeout_ms:t.retry_timeout_ms ~bus:t.bus ~node:t.me ~tag:"base.read" ()
  in
  Hashtbl.replace t.pending op (Read call)

let write_two_phase t ~system ~key ~value ~on_done =
  let op1 = fresh_op t in
  let phase2 max_lc =
    let wlc = Lc.succ (Lc.max max_lc t.last_issued) ~node:t.me in
    t.last_issued <- wlc;
    let op2 = fresh_op t in
    let call =
      Qrpc.call ~timer:(timer t) ~rng:t.rng ~system ~mode:Qrpc.Write
        ~send:(fun dst -> send t dst (Base_msg.Write_req { op = op2; key; value; lc = wlc }))
        ~on_quorum:(fun _ ->
          Hashtbl.remove t.pending op2;
          on_done ~lc:wlc)
        ~prefer:t.me ?strategy:(strategy_for t ~system Qrpc.Write)
        ~timeout_ms:t.retry_timeout_ms ~bus:t.bus ~node:t.me ~tag:"base.write" ()
    in
    Hashtbl.replace t.pending op2 (Write call)
  in
  let call =
    Qrpc.call ~timer:(timer t) ~rng:t.rng ~system ~mode:Qrpc.Read
      ~send:(fun dst -> send t dst (Base_msg.Lc_req { op = op1 }))
      ~on_quorum:(fun replies ->
        Hashtbl.remove t.pending op1;
        let max_lc = List.fold_left (fun acc (_, lc) -> Lc.max acc lc) Lc.zero replies in
        phase2 max_lc)
      ~prefer:t.me ?strategy:(strategy_for t ~system Qrpc.Read)
      ~timeout_ms:t.retry_timeout_ms ~bus:t.bus ~node:t.me ~tag:"base.lc_read" ()
  in
  Hashtbl.replace t.pending op1 (Lc_read call)

let write_forward t ~primary ~key ~value ~on_done =
  let op = fresh_op t in
  let system = Qs.threshold ~name:"primary" ~members:[ primary ] ~read:1 ~write:1 in
  let call =
    Qrpc.call ~timer:(timer t) ~rng:t.rng ~system ~mode:Qrpc.Write
      ~send:(fun dst -> send t dst (Base_msg.Fwd_write_req { op; key; value }))
      ~on_quorum:(fun replies ->
        Hashtbl.remove t.pending op;
        match replies with
        | (_, lc) :: _ -> on_done ~lc
        | [] -> ())
      ~timeout_ms:t.retry_timeout_ms ~bus:t.bus ~node:t.me ~tag:"base.fwd_write" ()
  in
  Hashtbl.replace t.pending op (Write call)

let write t ~key ~value ~on_done =
  match t.style with
  | Forward { primary } -> write_forward t ~primary ~key ~value ~on_done
  | Two_phase { system; _ } -> write_two_phase t ~system ~key ~value ~on_done
  | Local_session _ -> write_two_phase t ~system:(target_system t) ~key ~value ~on_done

let deliver t ~src ~op payload =
  match Hashtbl.find_opt t.pending op, payload with
  | Some (Read call), `Read reply -> Qrpc.deliver call ~src reply
  | Some (Lc_read call), `Lc lc -> Qrpc.deliver call ~src lc
  | Some (Write call), `Ack lc -> Qrpc.deliver call ~src lc
  | Some _, _ | None, _ -> ()

let handle t ~src msg =
  match msg with
  | Base_msg.Read_reply { op; value; lc; _ } -> deliver t ~src ~op (`Read (value, lc))
  | Base_msg.Lc_reply { op; lc } -> deliver t ~src ~op (`Lc lc)
  | Base_msg.Write_ack { op; lc; _ } -> deliver t ~src ~op (`Ack lc)
  | Base_msg.Fwd_write_ack { op; lc; _ } -> deliver t ~src ~op (`Ack lc)
  | Base_msg.Client_read_req { op; key; floor } ->
    if Dq_util.Seen_ops.add_fresh t.seen_client_ops ~client:src ~op then
      read ~floor t ~key ~on_done:(fun ~value ~lc ->
          send t src (Base_msg.Client_read_reply { op; key; value; lc }))
  | Base_msg.Client_write_req { op; key; value } ->
    if Dq_util.Seen_ops.add_fresh t.seen_client_ops ~client:src ~op then
      write t ~key ~value ~on_done:(fun ~lc ->
          send t src (Base_msg.Client_write_reply { op; key; lc }))
  | Base_msg.Client_read_reply _ | Base_msg.Client_write_reply _ | Base_msg.Read_req _
  | Base_msg.Lc_req _ | Base_msg.Write_req _ | Base_msg.Fwd_write_req _
  | Base_msg.Propagate _ | Base_msg.Gossip _ | Base_msg.Pull_req _
  | Base_msg.Pull_resp _ ->
    ()

let on_recover t =
  t.pending <- Hashtbl.create 16;
  t.seen_client_ops <- Dq_util.Seen_ops.create ()
