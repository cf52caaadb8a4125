module Engine = Dq_sim.Engine

let test_time_starts_at_zero () =
  let e = Engine.create () in
  Alcotest.(check (float 0.)) "t=0" 0. (Engine.now e)

let test_fires_in_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag () = log := (tag, Engine.now e) :: !log in
  ignore (Engine.schedule e ~delay:30. (note "c"));
  ignore (Engine.schedule e ~delay:10. (note "a"));
  ignore (Engine.schedule e ~delay:20. (note "b"));
  Engine.run e;
  Alcotest.(check (list (pair string (float 0.))))
    "order" [ ("a", 10.); ("b", 20.); ("c", 30.) ] (List.rev !log)

let test_fifo_at_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~delay:5. (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo ties" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~delay:1. (fun () ->
         log := ("outer", Engine.now e) :: !log;
         ignore
           (Engine.schedule e ~delay:2. (fun () -> log := ("inner", Engine.now e) :: !log))));
  Engine.run e;
  Alcotest.(check (list (pair string (float 0.))))
    "nested" [ ("outer", 1.); ("inner", 3.) ] (List.rev !log)

let test_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let handle = Engine.schedule e ~delay:1. (fun () -> fired := true) in
  Alcotest.(check bool) "pending before" true (Engine.is_pending handle);
  Engine.cancel handle;
  Alcotest.(check bool) "pending after" false (Engine.is_pending handle);
  Engine.run e;
  Alcotest.(check bool) "not fired" false !fired

(* A cancelled event stays queued until its due time, but must not keep
   what its closure captured alive until then. The watched value is
   allocated and captured in a separate function so no local root of
   this frame holds it. *)
let[@inline never] schedule_watched e ~weak =
  let payload = Bytes.make 64 'x' in
  Weak.set weak 0 (Some payload);
  Engine.schedule e ~delay:1000. (fun () -> ignore (Sys.opaque_identity payload))

let test_cancel_releases_closure () =
  let e = Engine.create () in
  let weak = Weak.create 1 in
  let fired = ref 0 in
  ignore (Engine.schedule e ~delay:2000. (fun () -> incr fired));
  let handle = schedule_watched e ~weak in
  Alcotest.(check int) "two pending" 2 (Engine.pending_events e);
  Engine.cancel handle;
  Alcotest.(check int) "cancelled no longer pending" 1 (Engine.pending_events e);
  Gc.full_major ();
  Alcotest.(check bool) "captured value collected before the due time" false
    (Weak.check weak 0);
  Alcotest.(check (float 0.)) "no time passed" 0. (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "only the live event fired" 1 !fired;
  Alcotest.(check int) "events executed" 1 (Engine.events_executed e);
  Alcotest.(check int) "nothing pending" 0 (Engine.pending_events e)

(* A fired event must not stay reachable from the wheel slots it
   passed through. At 1 000 ms out, the event sits in a level-2 slot,
   is promoted into a level-1 slot, and is drained into the heap. *)
let test_fired_event_released () =
  let e = Engine.create () in
  let weak = Weak.create 1 in
  ignore (schedule_watched e ~weak);
  Engine.run ~until:1500. e;
  Alcotest.(check int) "fired" 1 (Engine.events_executed e);
  Gc.full_major ();
  Alcotest.(check bool) "captured value collected once fired" false (Weak.check weak 0);
  (* the engine is still live, and still usable *)
  let fired = ref false in
  ignore (Engine.schedule e ~delay:1. (fun () -> fired := true));
  Engine.run e;
  Alcotest.(check bool) "engine still runs" true !fired

(* A cancelled event leaves the timer wheel at once: once the test
   drops its handle, nothing holds the event. It is scheduled and
   cancelled in a separate function so no local root of the test holds
   it. *)
let[@inline never] schedule_cancelled e ~weak ~delay =
  let h = Engine.schedule e ~delay ignore in
  Weak.set weak 0 (Some h);
  Engine.cancel h

(* Removal fills the hole with the slot's last entry; the moved
   neighbour still fires at its (time, seq). In each slot below, the
   cancelled event is the first entry and the last one is due first;
   "a" and "b" share an instant, so only their seq orders them. *)
let test_cancelled_timer_leaves_wheel () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag () = log := (tag, Engine.now e) :: !log in
  let level1 = Weak.create 1 and level2 = Weak.create 1 in
  schedule_cancelled e ~weak:level1 ~delay:5.2;
  ignore (Engine.schedule e ~delay:5.5 (note "a"));
  ignore (Engine.schedule e ~delay:5.5 (note "b"));
  ignore (Engine.schedule e ~delay:5.1 (note "c"));
  (* 1 000 ms out: a level-2 slot, promoted before it fires *)
  schedule_cancelled e ~weak:level2 ~delay:1000.2;
  ignore (Engine.schedule e ~delay:1000.6 (note "d"));
  ignore (Engine.schedule e ~delay:1000.1 (note "e"));
  Alcotest.(check int) "five pending" 5 (Engine.pending_events e);
  Gc.full_major ();
  Alcotest.(check bool) "level-1 event gone from the wheel" false (Weak.check level1 0);
  Alcotest.(check bool) "level-2 event gone from the wheel" false (Weak.check level2 0);
  Engine.run e;
  Alcotest.(check (list (pair string (float 0.))))
    "neighbours fire in (time, seq) order"
    [ ("c", 5.1); ("a", 5.5); ("b", 5.5); ("e", 1000.1); ("d", 1000.6) ]
    (List.rev !log);
  Alcotest.(check int) "only live events executed" 5 (Engine.events_executed e)

(* An event the engine has already loaded into its sorted run (it
   shares a wheel slot with the event now firing) can still be
   cancelled, and then neither fires nor counts. *)
let test_cancel_in_run () =
  let e = Engine.create () in
  let log = ref [] in
  let later = ref None in
  ignore
    (Engine.schedule e ~delay:5.2 (fun () ->
         log := "first" :: !log;
         Option.iter Engine.cancel !later));
  later := Some (Engine.schedule e ~delay:5.7 (fun () -> log := "cancelled" :: !log));
  ignore (Engine.schedule e ~delay:5.9 (fun () -> log := "last" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "first"; "last" ] (List.rev !log);
  Alcotest.(check int) "executed" 2 (Engine.events_executed e);
  Alcotest.(check int) "nothing pending" 0 (Engine.pending_events e)

(* A run entry (here 5 ms out: one wheel slot, loaded into the run)
   releases its action once fired; so does a guarded event, even while
   its handle is still held, as protocol state holds timer handles. *)
let[@inline never] schedule_guarded_watched e ~weak =
  let payload = Bytes.make 64 'x' in
  Weak.set weak 0 (Some payload);
  Engine.schedule_guarded e ~delay:5. ~guard:(fun () _ -> true) () 0 (fun () ->
      ignore (Sys.opaque_identity payload))

let test_fired_run_entry_released () =
  let e = Engine.create () in
  let weak = Weak.create 1 in
  let guarded = schedule_guarded_watched e ~weak in
  let weak_thunk = Weak.create 1 in
  let[@inline never] arm () =
    let payload = Bytes.make 64 'y' in
    Weak.set weak_thunk 0 (Some payload);
    Engine.schedule e ~delay:5.5 (fun () -> ignore (Sys.opaque_identity payload))
  in
  let thunk = arm () in
  Engine.run e;
  Alcotest.(check int) "both fired" 2 (Engine.events_executed e);
  Gc.full_major ();
  Alcotest.(check bool) "guarded action collected though its handle is live" false
    (Weak.check weak 0);
  Alcotest.(check bool) "run entry's action collected though its handle is live" false
    (Weak.check weak_thunk 0);
  Alcotest.(check bool) "handles no longer pending" false
    (Engine.is_pending guarded || Engine.is_pending thunk);
  Engine.cancel thunk;
  Alcotest.(check int) "cancel after firing is a no-op" 0 (Engine.pending_events e)

(* A guarded event runs its action only if the guard holds at expiry,
   and counts as executed either way. *)
let test_guarded () =
  let e = Engine.create () in
  let state = ref 0 in
  let alive state stamp = !state = stamp in
  let ran = ref [] in
  ignore (Engine.schedule_guarded e ~delay:1. ~guard:alive state 0 (fun () -> ran := 1 :: !ran));
  ignore (Engine.schedule_guarded e ~delay:3. ~guard:alive state 0 (fun () -> ran := 2 :: !ran));
  let h = Engine.schedule_guarded e ~delay:4. ~guard:alive state 1 (fun () -> ran := 3 :: !ran) in
  ignore (Engine.schedule e ~delay:2. (fun () -> incr state));
  Alcotest.(check int) "four pending" 4 (Engine.pending_events e);
  Engine.cancel h;
  Alcotest.(check bool) "cancelled" false (Engine.is_pending h);
  Engine.run e;
  Alcotest.(check (list int)) "only the guard that held ran" [ 1 ] (List.rev !ran);
  Alcotest.(check int) "guard failure still executes" 3 (Engine.events_executed e)

let test_delivery () =
  let e = Engine.create () in
  let got = ref [] in
  let handler ~src ~dst msg = got := (src, dst, msg, Engine.now e) :: !got in
  Engine.schedule_delivery e ~delay:8. handler ~src:1 ~dst:2 "b";
  Engine.schedule_delivery e ~delay:0.05 handler ~src:3 ~dst:3 "a";
  Alcotest.(check int) "pending" 2 (Engine.pending_events e);
  Engine.run e;
  Alcotest.(check (list (pair (pair int int) (pair string (float 0.)))))
    "delivered in time order"
    [ ((3, 3), ("a", 0.05)); ((1, 2), ("b", 8.)) ]
    (List.rev_map (fun (s, d, m, t) -> ((s, d), (m, t))) !got);
  Alcotest.(check int) "none pending" 0 (Engine.pending_events e)

(* Minor-heap words per scheduled-and-dispatched event, over the delays
   perfbench's [engine.dispatch] micro uses (local, LAN, WAN, server,
   retransmission and lease timers). The event is a three-word thunk
   and its time is boxed once; the heap's option results, the refill
   closure and the event's boxed key are gone. *)
let test_dispatch_allocation () =
  let e = Engine.create () in
  let base = [| 0.; 0.05; 8.; 80.; 86.; 400.; 5000. |] in
  let delays = Array.init 1000 (fun i -> base.(i mod 7) +. (float_of_int (i * 37 mod 100) /. 100.)) in
  let tick () = () in
  let batch () =
    Array.iter (fun delay -> ignore (Engine.schedule e ~delay tick : Engine.handle)) delays;
    Engine.run e
  in
  (* warm-up: grow the store buffers and wheel slots the batches touch *)
  for _ = 1 to 5 do
    batch ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 5 do
    batch ()
  done;
  let words = (Gc.minor_words () -. before) /. 5000. in
  if words > 14. then Alcotest.failf "%.1f words per dispatched event, budget 14" words

let test_cancel_idempotent () =
  let e = Engine.create () in
  let handle = Engine.schedule e ~delay:1. (fun () -> ()) in
  Engine.cancel handle;
  Engine.cancel handle;
  Alcotest.(check int) "no pending" 0 (Engine.pending_events e)

let test_pending_count () =
  let e = Engine.create () in
  let h1 = Engine.schedule e ~delay:1. (fun () -> ()) in
  let _h2 = Engine.schedule e ~delay:2. (fun () -> ()) in
  Alcotest.(check int) "two pending" 2 (Engine.pending_events e);
  Engine.cancel h1;
  Alcotest.(check int) "one pending" 1 (Engine.pending_events e);
  Engine.run e;
  Alcotest.(check int) "none pending" 0 (Engine.pending_events e)

let test_run_until () =
  let e = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun d -> ignore (Engine.schedule e ~delay:d (fun () -> fired := d :: !fired)))
    [ 5.; 15.; 25. ];
  Engine.run ~until:20. e;
  Alcotest.(check (list (float 0.))) "only early events" [ 5.; 15. ] (List.rev !fired);
  Alcotest.(check (float 0.)) "time advanced to horizon" 20. (Engine.now e);
  Engine.run e;
  Alcotest.(check (list (float 0.))) "rest fires later" [ 5.; 15.; 25. ] (List.rev !fired)

let test_run_until_with_cancelled_head () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:5. (fun () -> ()) in
  ignore (Engine.schedule e ~delay:30. (fun () -> fired := true));
  Engine.cancel h;
  (* The cancelled event at t=5 must not let the t=30 event slip inside
     an until:10 run. *)
  Engine.run ~until:10. e;
  Alcotest.(check bool) "late event did not fire" false !fired

let test_max_events () =
  let e = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    ignore (Engine.schedule e ~delay:1. (fun () -> incr count))
  done;
  Engine.run ~max_events:3 e;
  Alcotest.(check int) "stopped after three" 3 !count

let test_schedule_in_past_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:5. (fun () -> ()));
  Engine.run e;
  Alcotest.(check bool) "raises" true
    (try
       ignore (Engine.schedule_at e ~time:1. (fun () -> ()));
       false
     with Invalid_argument _ -> true)

let test_negative_delay_rejected () =
  let e = Engine.create () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Engine.schedule e ~delay:(-1.) (fun () -> ()));
       false
     with Invalid_argument _ -> true)

let test_run_while () =
  let e = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    ignore (Engine.schedule e ~delay:1. (fun () -> incr count))
  done;
  Engine.run_while e (fun () -> !count < 4);
  Alcotest.(check int) "condition stops the loop" 4 !count

let test_determinism () =
  (* Two engines with the same seed and the same program produce the
     same random draws interleaved with events. *)
  let run_once () =
    let e = Engine.create ~seed:99L () in
    let rng = Engine.split_rng e in
    let acc = ref [] in
    for i = 1 to 5 do
      ignore
        (Engine.schedule e ~delay:(float_of_int i) (fun () ->
             acc := Dq_util.Rng.int rng 1000 :: !acc))
    done;
    Engine.run e;
    !acc
  in
  Alcotest.(check (list int)) "identical" (run_once ()) (run_once ())

let prop_events_fire_in_order =
  QCheck.Test.make ~name:"events fire in nondecreasing time order" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 50) (float_range 0. 1000.))
    (fun delays ->
      let e = Engine.create () in
      let times = ref [] in
      List.iter
        (fun d -> ignore (Engine.schedule e ~delay:d (fun () -> times := Engine.now e :: !times)))
        delays;
      Engine.run e;
      let fired = List.rev !times in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
        | [ _ ] | [] -> true
      in
      List.length fired = List.length delays && nondecreasing fired)

(* {2 Order against a reference model}

   A program schedules events at t = 0; each firing performs the next
   reaction in a cycle: schedule more events or cancel an earlier one,
   which may have fired already, or sit in the heap, the wheel (either
   level) or the sorted run. [Cancel_recent k] cancels the k-th latest
   event, which is likely still in the wheel, so that removals move
   slot neighbours. The reference is a plain list of pending events
   searched for the least (time, seq) at every step. Each firing also
   records the pending count once its reactions are done. *)

type reaction = Spawn of float | Cancel of int | Cancel_recent of int

type sched = {
  now : unit -> float;
  arm : delay:float -> (unit -> unit) -> unit -> unit; (* returns the canceller *)
  pending : unit -> int;
  drain : unit -> unit;
}

let engine_sched () =
  let e = Engine.create () in
  {
    now = (fun () -> Engine.now e);
    arm =
      (fun ~delay f ->
        let h = Engine.schedule e ~delay f in
        fun () -> Engine.cancel h);
    pending = (fun () -> Engine.pending_events e);
    drain = (fun () -> Engine.run e);
  }

let model_sched () =
  let clock = ref 0. and seq = ref 0 and pending = ref [] in
  let rec drain () =
    let least =
      List.fold_left
        (fun acc ((time, s, _, _) as ev) ->
          match acc with
          | Some (t', s', _, _) when t' < time || (t' = time && s' < s) -> acc
          | Some _ | None -> Some ev)
        None !pending
    in
    match least with
    | None -> ()
    | Some ((time, _, live, f) as ev) ->
      pending := List.filter (fun ev' -> ev' != ev) !pending;
      clock := time;
      if !live then begin
        live := false;
        f ()
      end;
      drain ()
  in
  {
    now = (fun () -> !clock);
    arm =
      (fun ~delay f ->
        let live = ref true in
        pending := (!clock +. delay, !seq, live, f) :: !pending;
        incr seq;
        fun () -> live := false);
    pending = (fun () -> List.length (List.filter (fun (_, _, live, _) -> !live) !pending));
    drain;
  }

let interpret sched (initial, reactions) =
  let fired = ref [] and cancels = ref [||] and count = ref 0 and firings = ref 0 in
  let rec spawn delay =
    let id = !count in
    incr count;
    let cancel =
      sched.arm ~delay (fun () ->
          let now = sched.now () in
          let k = !firings in
          incr firings;
          List.iter
            (function
              | Spawn d -> if !count < 300 then spawn d
              | Cancel j -> !cancels.(j mod !count) ()
              | Cancel_recent j -> !cancels.(!count - 1 - (j mod !count)) ())
            reactions.(k mod Array.length reactions);
          fired := (id, now, sched.pending ()) :: !fired)
    in
    if id >= Array.length !cancels then
      cancels := Array.append !cancels (Array.make (max 16 id) ignore);
    !cancels.(id) <- cancel
  in
  List.iter spawn initial;
  sched.drain ();
  List.rev !fired

let gen_delay =
  QCheck.Gen.(
    frequency
      [
        (3, return 0.); (* zero-delay continuation, into the current slot *)
        (3, return 0.05); (* local delivery *)
        (4, return 80.); (* same-instant bursts *)
        (2, return 80.05);
        (4, map (fun i -> float_of_int i /. 20.) (int_range 0 60)); (* nearby slots *)
        (2, map (fun i -> 256. +. (float_of_int i /. 4.)) (int_range 0 4000)); (* level 2 *)
        (1, map (fun i -> 65_536. +. (1000. *. float_of_int i)) (int_range 0 8));
        (* around and past the horizon *)
      ])

let gen_program =
  QCheck.Gen.(
    pair
      (list_size (int_range 1 20) gen_delay)
      (array_size (int_range 1 8)
         (list_size (int_range 0 3)
            (frequency
               [
                 (3, map (fun d -> Spawn d) gen_delay);
                 (1, map (fun j -> Cancel j) nat);
                 (1, map (fun j -> Cancel_recent j) (int_range 0 4));
               ]))))

let print_program (initial, reactions) =
  let reaction = function
    | Spawn d -> Printf.sprintf "+%g" d
    | Cancel j -> Printf.sprintf "x%d" j
    | Cancel_recent j -> Printf.sprintf "r%d" j
  in
  Printf.sprintf "initial [%s]; reactions [%s]"
    (String.concat "; " (List.map string_of_float initial))
    (String.concat " | "
       (Array.to_list (Array.map (fun rs -> String.concat " " (List.map reaction rs)) reactions)))

let prop_fires_in_reference_order =
  QCheck.Test.make ~name:"firing order equals the sorted (time, seq) model" ~count:300
    (QCheck.make ~print:print_program gen_program)
    (fun program -> interpret (engine_sched ()) program = interpret (model_sched ()) program)

let () =
  Alcotest.run "engine"
    [
      ( "unit",
        [
          Alcotest.test_case "starts at zero" `Quick test_time_starts_at_zero;
          Alcotest.test_case "time order" `Quick test_fires_in_time_order;
          Alcotest.test_case "fifo ties" `Quick test_fifo_at_same_time;
          Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "cancel idempotent" `Quick test_cancel_idempotent;
          Alcotest.test_case "cancel in run" `Quick test_cancel_in_run;
          Alcotest.test_case "fired run entry released" `Quick test_fired_run_entry_released;
          Alcotest.test_case "guarded" `Quick test_guarded;
          Alcotest.test_case "delivery" `Quick test_delivery;
          Alcotest.test_case "dispatch allocation" `Quick test_dispatch_allocation;
          Alcotest.test_case "cancel releases closure" `Quick test_cancel_releases_closure;
          Alcotest.test_case "cancelled wheel timer leaves the wheel" `Quick
            test_cancelled_timer_leaves_wheel;
          Alcotest.test_case "fired event released" `Quick test_fired_event_released;
          Alcotest.test_case "pending count" `Quick test_pending_count;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "run until with cancelled head" `Quick
            test_run_until_with_cancelled_head;
          Alcotest.test_case "max events" `Quick test_max_events;
          Alcotest.test_case "schedule in past" `Quick test_schedule_in_past_rejected;
          Alcotest.test_case "negative delay" `Quick test_negative_delay_rejected;
          Alcotest.test_case "run while" `Quick test_run_while;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [ prop_events_fire_in_order; prop_fires_in_reference_order ] );
    ]
