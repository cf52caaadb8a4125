module Qs = Dq_quorum.Quorum_system
module Strategy = Dq_quorum.Strategy

type quorum_mode = Read | Write

let qs_mode = function Read -> Qs.Read | Write -> Qs.Write

type 'rep t = {
  system : Qs.t;
  replies : (int, 'rep) Hashtbl.t;
  mutable retry : Retry.t option;
}

(* Sorted by replier id: the reply table is keyed by node, and hash
   order must not leak into quorum callbacks (R7). *)
let replies t =
  Hashtbl.fold (fun src rep acc -> (src, rep) :: acc) t.replies []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* Pick a quorum to contact, always including [prefer] when it is a
   member (the paper's prototype contacts the local node first and fills
   the rest of the quorum randomly). An explicit [strategy] overrides
   this: its distribution is the configured policy, so the sample is
   used as-is, with no prefer swap. *)
let pick_targets ?strategy ~rng ~system ~mode ~prefer () =
  let strategy =
    match strategy with Some s -> s | None -> Strategy.default system (qs_mode mode)
  in
  let base = Strategy.sample strategy rng in
  if not (Strategy.is_default strategy) then base
  else
    match prefer with
    | Some node when Qs.mem system node && not (List.mem node base) -> (
      match Qs.counting_thresholds system with
      | Some _ ->
        (* Counting system: swapping any chosen member for [node] keeps a
           valid quorum. *)
        (match base with [] -> [ node ] | _ :: rest -> node :: rest)
      | None -> base (* structured quorums: keep the valid random choice *))
    | Some _ | None -> base

let pick_read_targets ?strategy ~rng ~system ~prefer () =
  pick_targets ?strategy ~rng ~system ~mode:Read ~prefer:(Some prefer) ()

let call ~timer ~rng ~system ~mode ~send ~on_quorum ?prefer ?strategy ?timeout_ms ?backoff
    ?max_rounds ?on_give_up ?bus ?node ?tag () =
  let t = { system; replies = Hashtbl.create 8; retry = None } in
  let attempt ~round =
    (* First try a minimal quorum; a retransmission means some target is
       slow or dead, so escalate to every member that has not yet
       replied (the paper's "more aggressive implementation might send
       to all nodes in system"). *)
    let targets =
      if round = 0 then pick_targets ?strategy ~rng ~system ~mode ~prefer ()
      else List.filter (fun m -> not (Hashtbl.mem t.replies m)) (Qs.members system)
    in
    List.iter send targets
  in
  let complete () =
    let present id = Hashtbl.mem t.replies id in
    match mode with
    | Read -> Qs.is_read_quorum t.system ~present
    | Write -> Qs.is_write_quorum t.system ~present
  in
  let on_complete () = on_quorum (replies t) in
  let retry =
    Retry.start ~timer ~attempt ~complete ~on_complete ?timeout_ms ?backoff ?max_rounds
      ?on_give_up ?bus ?node ?tag ()
  in
  t.retry <- Some retry;
  t

let deliver t ~src rep =
  if Qs.mem t.system src then begin
    Hashtbl.replace t.replies src rep;
    match t.retry with Some retry -> Retry.poke retry | None -> ()
  end

let cancel t = match t.retry with Some retry -> Retry.cancel retry | None -> ()

let is_done t = match t.retry with Some retry -> Retry.is_done retry | None -> false
