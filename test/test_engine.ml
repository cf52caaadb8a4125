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
          Alcotest.test_case "cancel releases closure" `Quick test_cancel_releases_closure;
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
      ("property", List.map QCheck_alcotest.to_alcotest [ prop_events_fire_in_order ]);
    ]
