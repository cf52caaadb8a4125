module Engine = Dq_sim.Engine
module Clock = Dq_sim.Clock
module Net = Dq_net.Net
module Rng = Dq_util.Rng

type pattern =
  | Isolate_one of { node : int; oneway : bool }
  | Majority_minority of { minority : int list }
  | Bridge of { bridge : int }
  | Ring

type action =
  | Partition of pattern
  | Heal
  | Crash_storm of { victims : int list; stagger_ms : float; down_ms : float }
  | Amnesia_storm of { victims : int list; stagger_ms : float; down_ms : float }
      (* like Crash_storm, but recovery wipes durable state: the node
         comes back empty and must state-transfer from its peers *)
  | Gray_degrade of { victims : int list; delay_ms : float; loss : float; duration_ms : float }
      (* gray failure: the victims stay up and keep answering, but all
         their traffic suffers extra delay and loss in both directions *)
  | Skew_bump of { node : int; skew : float }
  | Degrade_link of { src : int; dst : int; faults : Net.fault_model }
  | Clear_link of { src : int; dst : int }
  | Flap of { src : int; dst : int; up_ms : float; down_ms : float; duration_ms : float }
  | Lease_window of { pattern : pattern; hold_ms : float; max_wait_ms : float }

type step = { at_ms : float; action : action }

type program = step list

let pp_pattern ppf = function
  | Isolate_one { node; oneway } ->
    Format.fprintf ppf "isolate(%d%s)" node (if oneway then ",oneway" else "")
  | Majority_minority { minority } ->
    Format.fprintf ppf "split(minority=[%s])"
      (String.concat ";" (List.map string_of_int minority))
  | Bridge { bridge } -> Format.fprintf ppf "bridge(%d)" bridge
  | Ring -> Format.fprintf ppf "ring"

let pp_action ppf = function
  | Partition p -> Format.fprintf ppf "partition %a" pp_pattern p
  | Heal -> Format.fprintf ppf "heal"
  | Crash_storm { victims; stagger_ms; down_ms } ->
    Format.fprintf ppf "crash-storm [%s] stagger=%.0fms down=%.0fms"
      (String.concat ";" (List.map string_of_int victims))
      stagger_ms down_ms
  | Amnesia_storm { victims; stagger_ms; down_ms } ->
    Format.fprintf ppf "amnesia-storm [%s] stagger=%.0fms down=%.0fms"
      (String.concat ";" (List.map string_of_int victims))
      stagger_ms down_ms
  | Gray_degrade { victims; delay_ms; loss; duration_ms } ->
    Format.fprintf ppf "gray-degrade [%s] delay=%.0fms loss=%.2f for=%.0fms"
      (String.concat ";" (List.map string_of_int victims))
      delay_ms loss duration_ms
  | Skew_bump { node; skew } -> Format.fprintf ppf "skew-bump node=%d skew=%.2e" node skew
  | Degrade_link { src; dst; faults } ->
    Format.fprintf ppf "degrade %d->%d loss=%.2f dup=%.2f jitter=%.0fms" src dst
      faults.Net.loss faults.Net.duplicate faults.Net.jitter_ms
  | Clear_link { src; dst } -> Format.fprintf ppf "clear %d->%d" src dst
  | Flap { src; dst; up_ms; down_ms; duration_ms } ->
    Format.fprintf ppf "flap %d->%d up=%.0fms down=%.0fms for=%.0fms" src dst up_ms
      down_ms duration_ms
  | Lease_window { pattern; hold_ms; max_wait_ms } ->
    Format.fprintf ppf "lease-window %a hold=%.0fms max-wait=%.0fms" pp_pattern pattern
      hold_ms max_wait_ms

let action_end_ms at_ms = function
  | Partition _ | Heal | Skew_bump _ | Degrade_link _ | Clear_link _ -> at_ms
  | Crash_storm { victims; stagger_ms; down_ms } | Amnesia_storm { victims; stagger_ms; down_ms }
    ->
    at_ms +. (stagger_ms *. float_of_int (List.length victims)) +. down_ms
  | Flap { duration_ms; _ } -> at_ms +. duration_ms
  | Gray_degrade { duration_ms; _ } -> at_ms +. duration_ms
  | Lease_window { hold_ms; max_wait_ms; _ } -> at_ms +. max_wait_ms +. hold_ms

let end_ms program =
  List.fold_left
    (fun acc { at_ms; action } -> Float.max acc (action_end_ms at_ms action))
    0. program

(* {2 Seeded generation} *)

type fault_class =
  | Partitions
  | Crashes
  | Amnesia
  | Gray_failure
  | Degraded_links
  | Flapping
  | Clock_skew
  | Lease_expiry
  | Mixed

let all_classes =
  [
    Partitions;
    Crashes;
    Amnesia;
    Gray_failure;
    Degraded_links;
    Flapping;
    Clock_skew;
    Lease_expiry;
    Mixed;
  ]

let class_name = function
  | Partitions -> "partitions"
  | Crashes -> "crashes"
  | Amnesia -> "amnesia"
  | Gray_failure -> "gray-degrade"
  | Degraded_links -> "degraded-links"
  | Flapping -> "flapping"
  | Clock_skew -> "clock-skew"
  | Lease_expiry -> "lease-expiry"
  | Mixed -> "mixed"

let class_of_name name =
  List.find_opt (fun c -> class_name c = name) all_classes

let random_pattern rng ~n_servers =
  match Rng.int rng 4 with
  | 0 -> Isolate_one { node = Rng.int rng n_servers; oneway = Rng.bool rng }
  | 1 ->
    let size = 1 + Rng.int rng (Stdlib.max 1 ((n_servers - 1) / 2)) in
    let first = Rng.int rng n_servers in
    Majority_minority
      { minority = List.init size (fun i -> (first + i) mod n_servers) }
  | 2 when n_servers >= 3 -> Bridge { bridge = Rng.int rng n_servers }
  | _ -> Ring

(* Each class stages 1-3 bounded fault episodes starting around 2 s into
   the run and healing completely well before 45 s, leaving the driver
   plenty of fault-free time to satisfy the liveness check. *)
let rec generate rng cls ~n_servers =
  let n_servers = Stdlib.max 2 n_servers in
  let random_link () =
    let src = Rng.int rng n_servers in
    let dst = (src + 1 + Rng.int rng (n_servers - 1)) mod n_servers in
    (src, dst)
  in
  let episodes base step_gap make =
    let count = 1 + Rng.int rng 3 in
    List.concat
      (List.init count (fun i ->
           make (base +. (step_gap *. float_of_int i))))
  in
  let steps =
    match cls with
    | Partitions ->
      episodes 2_000. 12_000. (fun t ->
          let hold = 3_000. +. Rng.float rng 5_000. in
          [
            { at_ms = t; action = Partition (random_pattern rng ~n_servers) };
            { at_ms = t +. hold; action = Heal };
          ])
    | Crashes ->
      episodes 2_000. 14_000. (fun t ->
          let max_victims = Stdlib.max 1 ((n_servers + 1) / 2) in
          let count = 1 + Rng.int rng max_victims in
          let first = Rng.int rng n_servers in
          let victims = List.init count (fun i -> (first + i) mod n_servers) in
          [
            {
              at_ms = t;
              action =
                Crash_storm
                  {
                    victims;
                    stagger_ms = 200. +. Rng.float rng 800.;
                    down_ms = 2_000. +. Rng.float rng 6_000.;
                  };
            };
          ])
    | Amnesia ->
      (* Wiped nodes rejoin empty and state-transfer from peers, so the
         storm is kept to a minority and never includes node 0: under
         primary-backup the primary may hold acknowledged writes its
         backups have not yet seen, and wiping it would (correctly, but
         uninterestingly) lose them. *)
      episodes 2_000. 14_000. (fun t ->
          let pool = Stdlib.max 1 (n_servers - 1) in
          let max_victims = Stdlib.max 1 ((n_servers - 1) / 2) in
          let count = 1 + Rng.int rng max_victims in
          let first = Rng.int rng pool in
          let victims = List.init count (fun i -> 1 + ((first + i) mod pool)) in
          [
            {
              at_ms = t;
              action =
                Amnesia_storm
                  {
                    victims;
                    stagger_ms = 200. +. Rng.float rng 800.;
                    down_ms = 2_000. +. Rng.float rng 4_000.;
                  };
            };
          ])
    | Gray_failure ->
      episodes 2_000. 10_000. (fun t ->
          let count = 1 + Rng.int rng (Stdlib.max 1 (n_servers / 3)) in
          let first = Rng.int rng n_servers in
          let victims = List.init count (fun i -> (first + i) mod n_servers) in
          [
            {
              at_ms = t;
              action =
                Gray_degrade
                  {
                    victims;
                    delay_ms = 5. +. Rng.float rng 25.;
                    loss = Rng.float rng 0.3;
                    duration_ms = 4_000. +. Rng.float rng 4_000.;
                  };
            };
          ])
    | Degraded_links ->
      episodes 2_000. 10_000. (fun t ->
          let src, dst = random_link () in
          let faults =
            {
              Net.loss = 0.3 +. Rng.float rng 0.4;
              duplicate = Rng.float rng 0.2;
              jitter_ms = Rng.float rng 80.;
            }
          in
          [
            { at_ms = t; action = Degrade_link { src; dst; faults } };
            { at_ms = t +. 6_000. +. Rng.float rng 4_000.; action = Clear_link { src; dst } };
          ])
    | Flapping ->
      episodes 2_000. 10_000. (fun t ->
          let src, dst = random_link () in
          let flap dir_src dir_dst =
            {
              at_ms = t;
              action =
                Flap
                  {
                    src = dir_src;
                    dst = dir_dst;
                    up_ms = 100. +. Rng.float rng 400.;
                    down_ms = 100. +. Rng.float rng 400.;
                    duration_ms = 4_000. +. Rng.float rng 4_000.;
                  };
            }
          in
          if Rng.bool rng then [ flap src dst; flap dst src ] else [ flap src dst ])
    | Clock_skew ->
      episodes 2_000. 8_000. (fun t ->
          [
            {
              at_ms = t;
              action =
                Skew_bump
                  {
                    node = Rng.int rng n_servers;
                    (* magnitude beyond any plausible bound on purpose:
                       the interpreter clamps inside the protocol's
                       configured drift bound *)
                    skew = (if Rng.bool rng then 1. else -1.) *. Rng.float rng 0.05;
                  };
            };
          ])
    | Lease_expiry ->
      episodes 3_000. 15_000. (fun t ->
          [
            {
              at_ms = t;
              action =
                Lease_window
                  {
                    pattern = random_pattern rng ~n_servers;
                    hold_ms = 2_000. +. Rng.float rng 3_000.;
                    max_wait_ms = 4_000.;
                  };
            };
          ])
    | Mixed ->
      let sub_classes =
        [ Partitions; Crashes; Amnesia; Gray_failure; Degraded_links; Flapping; Clock_skew ]
      in
      let pick () = Option.value (Rng.choose rng sub_classes) ~default:Partitions in
      (* two independent single-episode programs of random classes,
         offset so their fault windows overlap *)
      let a = generate_one rng (pick ()) ~n_servers ~base:2_000. in
      let b = generate_one rng (pick ()) ~n_servers ~base:6_000. in
      a @ b
  in
  let sorted = List.stable_sort (fun a b -> Float.compare a.at_ms b.at_ms) steps in
  let final_heal = { at_ms = end_ms sorted +. 1_000.; action = Heal } in
  sorted @ [ final_heal ]

and generate_one rng cls ~n_servers ~base =
  (* a shortened, single-episode variant used to compose Mixed programs *)
  let shifted = generate rng cls ~n_servers in
  match shifted with
  | [] -> []
  | first :: _ ->
    let shift = base -. first.at_ms in
    List.filter_map
      (fun s ->
        match s.action with
        | Heal -> None (* the composed program gets one final heal *)
        | _ -> Some { s with at_ms = s.at_ms +. shift })
      (List.filteri (fun i _ -> i < 2) shifted)

(* {2 Interpretation} *)

type event = { fired_ms : float; label : string }

let cut_links c ~pairs ~apply =
  List.iter
    (fun (src, dst) ->
      if apply then c.Net.c_cut ~src ~dst else c.Net.c_uncut ~src ~dst)
    pairs

let pattern_pairs ~servers = function
  | Isolate_one { node; oneway } ->
    List.concat_map
      (fun other ->
        if other = node then []
        else if oneway then [ (node, other) ]
        else [ (node, other); (other, node) ])
      servers
  | Majority_minority { minority } ->
    let in_minority id = List.mem id minority in
    List.concat_map
      (fun a ->
        List.concat_map
          (fun b -> if in_minority a && not (in_minority b) then [ (a, b); (b, a) ] else [])
          servers)
      servers
  | Bridge { bridge } ->
    let rest = List.filter (fun id -> id <> bridge) servers in
    let half = (List.length rest + 1) / 2 in
    let left = List.filteri (fun i _ -> i < half) rest in
    let in_left id = List.mem id left in
    List.concat_map
      (fun a ->
        List.concat_map
          (fun b ->
            if a <> bridge && b <> bridge && in_left a && not (in_left b) then
              [ (a, b); (b, a) ]
            else [])
          rest)
      rest
  | Ring ->
    let arr = Array.of_list servers in
    let n = Array.length arr in
    let adjacent i j = (i + 1) mod n = j || (j + 1) mod n = i in
    let pairs = ref [] in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j && not (adjacent i j) then pairs := (arr.(i), arr.(j)) :: !pairs
      done
    done;
    !pairs

let drift_cap (instance : Registry.instance) =
  match instance.Registry.dq_cluster with
  | Some cluster ->
    (* strictly inside the bound the lease arithmetic compensates for,
       so skew bumps can never create a safety violation *)
    (Dq_core.Cluster.config cluster).Dq_core.Config.max_drift *. 0.9
  | None -> 0.01

let next_lease_expiry cluster ~servers =
  List.fold_left
    (fun acc id ->
      match Dq_core.Cluster.oqs_server cluster id with
      | None -> acc
      | Some oqs -> (
        match Dq_core.Oqs_server.next_lease_expiry_ms oqs with
        | None -> acc
        | Some delay -> (
          match acc with Some best when best <= delay -> acc | Some _ | None -> Some delay)))
    None servers

let install engine (instance : Registry.instance) ~servers program =
  let log = ref [] in
  let c = instance.Registry.control in
  let bus = Engine.telemetry engine in
  let record label =
    log := { fired_ms = Engine.now engine; label } :: !log;
    if Dq_telemetry.Bus.subscribed bus then
      Dq_telemetry.Bus.emit bus (Dq_telemetry.Event.Fault_injected { label })
  in
  let apply_pattern pattern =
    cut_links c ~pairs:(pattern_pairs ~servers pattern) ~apply:true
  in
  let unapply_pattern pattern =
    cut_links c ~pairs:(pattern_pairs ~servers pattern) ~apply:false
  in
  let fire action =
    match action with
    | Partition pattern ->
      record (Format.asprintf "partition %a" pp_pattern pattern);
      apply_pattern pattern
    | Heal ->
      record "heal";
      c.Net.c_heal ()
    | Crash_storm { victims; stagger_ms; down_ms } ->
      record (Format.asprintf "%a" pp_action action);
      List.iteri
        (fun i id ->
          let offset = stagger_ms *. float_of_int i in
          ignore (Engine.schedule engine ~delay:offset (fun () -> c.Net.c_crash id));
          ignore
            (Engine.schedule engine ~delay:(offset +. down_ms) (fun () ->
                 c.Net.c_recover id)))
        victims
    | Amnesia_storm { victims; stagger_ms; down_ms } ->
      record (Format.asprintf "%a" pp_action action);
      List.iteri
        (fun i id ->
          let offset = stagger_ms *. float_of_int i in
          ignore (Engine.schedule engine ~delay:offset (fun () -> c.Net.c_crash_amnesia id));
          ignore
            (Engine.schedule engine ~delay:(offset +. down_ms) (fun () ->
                 c.Net.c_recover id)))
        victims
    | Gray_degrade { victims; delay_ms; loss; duration_ms } ->
      record (Format.asprintf "%a" pp_action action);
      List.iter (fun id -> c.Net.c_degrade_node id ~delay_ms ~loss) victims;
      ignore
        (Engine.schedule engine ~delay:duration_ms (fun () ->
             record
               (Printf.sprintf "clear-degrade [%s]"
                  (String.concat ";" (List.map string_of_int victims)));
             List.iter c.Net.c_clear_degrade victims))
    | Skew_bump { node; skew } -> (
      match instance.Registry.server_clock node with
      | None -> record (Printf.sprintf "skew-bump node=%d (no clock, ignored)" node)
      | Some clock ->
        let cap = drift_cap instance in
        let clamped = Float.min cap (Float.max (-.cap) skew) in
        record (Printf.sprintf "skew-bump node=%d skew=%.2e" node clamped);
        Clock.set_skew clock clamped)
    | Degrade_link { src; dst; faults } ->
      record (Format.asprintf "%a" pp_action action);
      c.Net.c_set_link_faults ~src ~dst (Some faults)
    | Clear_link { src; dst } ->
      record (Printf.sprintf "clear %d->%d" src dst);
      c.Net.c_set_link_faults ~src ~dst None
    | Flap { src; dst; up_ms; down_ms; duration_ms } ->
      record (Format.asprintf "%a" pp_action action);
      c.Net.c_flap_link ~src ~dst ~up_ms ~down_ms
        ~until_ms:(Engine.now engine +. duration_ms)
    | Lease_window { pattern; hold_ms; max_wait_ms } ->
      let deadline = Engine.now engine +. max_wait_ms in
      let open_window reason =
        record
          (Format.asprintf "lease-window opened (%s): partition %a" reason pp_pattern
             pattern);
        apply_pattern pattern;
        ignore
          (Engine.schedule engine ~delay:hold_ms (fun () ->
               record "lease-window closed";
               unapply_pattern pattern))
      in
      (match instance.Registry.dq_cluster with
      | None -> open_window "no lease introspection"
      | Some cluster ->
        (* Poll the OQS lease tables and open the window just before the
           earliest currently-valid volume lease lapses, so the
           partition spans the expiry moment. *)
        let rec poll () =
          match next_lease_expiry cluster ~servers with
          | Some delay when delay <= 60. ->
            open_window (Printf.sprintf "expiry in %.0fms" delay)
          | _ ->
            if Engine.now engine >= deadline then open_window "max-wait reached"
            else ignore (Engine.schedule engine ~delay:25. poll)
        in
        poll ())
  in
  List.iter
    (fun { at_ms; action } ->
      ignore (Engine.schedule_at engine ~time:at_ms (fun () -> fire action)))
    program;
  log

(* {2 Per-phase metrics} *)

type phase = {
  label : string;
  from_ms : float;
  until_ms : float;
  p_issued : int;
  p_completed : int;
  p_failed : int;
  p_gave_up : int;
}

let phases ~events ~history =
  let boundaries =
    ("initial", 0.)
    :: List.map
         (fun { fired_ms; label } -> (label, fired_ms))
         (List.sort (fun a b -> Float.compare a.fired_ms b.fired_ms) events)
  in
  let rec windows = function
    | [] -> []
    | [ (label, from_ms) ] -> [ (label, from_ms, infinity) ]
    | (label, from_ms) :: ((_, until_ms) :: _ as rest) ->
      (label, from_ms, until_ms) :: windows rest
  in
  List.map
    (fun (label, from_ms, until_ms) ->
      let in_phase (op : History.op) = op.invoked >= from_ms && op.invoked < until_ms in
      let ops = List.filter in_phase history in
      let count pred = List.length (List.filter pred ops) in
      {
        label;
        from_ms;
        until_ms;
        p_issued = List.length ops;
        p_completed = count (fun op -> Option.is_some op.History.responded);
        p_gave_up =
          count (fun op ->
              Option.is_none op.History.responded
              && Option.is_some op.History.gave_up);
        p_failed =
          count (fun op ->
              Option.is_none op.History.responded
              && Option.is_none op.History.gave_up);
      })
    (windows boundaries)

