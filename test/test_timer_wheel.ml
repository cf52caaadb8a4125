module W = Dq_sim.Timer_wheel
module H = Dq_sim.Event_heap
module Engine = Dq_sim.Engine

(* Cross the next non-empty slot; its entries as (time, seq, payload),
   in the run's (time, seq) order. *)
let advance w ~dummy =
  let r = H.create_run ~dummy in
  W.advance w r;
  let rec consume acc =
    if r.H.pos = r.H.stop then List.rev acc
    else begin
      let i = r.H.pos in
      let entry = (r.H.r_times.(i), r.H.r_seqs.(i), r.H.r_data.(i)) in
      H.drop_head r;
      consume (entry :: acc)
    end
  in
  consume []

(* For wheels whose tests never remove an entry. *)
let no_locate _ _ = ()

let payloads entries = List.map (fun (_, _, x) -> x) entries

(* {2 Direct wheel API} *)

let test_reject_edges () =
  let w = W.create ~dummy:(-1) ~locate:no_locate () in
  (* boundary after creation is the end of slot 0 *)
  Alcotest.(check (float 1e-9)) "boundary" 1.0 (W.boundary w);
  Alcotest.(check bool) "below boundary" false (W.add w ~time:0.5 ~seq:0 0);
  Alcotest.(check bool) "past horizon" false (W.add w ~time:(W.horizon w +. 1.) ~seq:1 1);
  Alcotest.(check bool) "exactly horizon" false (W.add w ~time:(W.horizon w) ~seq:2 2);
  Alcotest.(check bool) "in range" true (W.add w ~time:5.5 ~seq:3 3);
  Alcotest.(check int) "length" 1 (W.length w)

let test_advance_drains_in_slot_batches () =
  let w = W.create ~dummy:(-1) ~locate:no_locate () in
  Alcotest.(check bool) "a" true (W.add w ~time:5.5 ~seq:0 0);
  Alcotest.(check bool) "b" true (W.add w ~time:5.9 ~seq:1 1);
  Alcotest.(check bool) "c" true (W.add w ~time:9.1 ~seq:2 2);
  Alcotest.(check (list int)) "slot 5 first" [ 0; 1 ] (payloads (advance w ~dummy:(-1)));
  Alcotest.(check bool) "boundary passed slot" true (W.boundary w > 5.9);
  Alcotest.(check (list int)) "slot 9 next" [ 2 ] (payloads (advance w ~dummy:(-1)));
  Alcotest.(check int) "empty" 0 (W.length w);
  Alcotest.check_raises "advance on empty" (Invalid_argument "Timer_wheel.advance: empty wheel")
    (fun () -> ignore (advance w ~dummy:(-1)))

let test_level2_promotion () =
  let w = W.create ~dummy:(-1) ~locate:no_locate () in
  (* past the level-1 rotation (256 slots of 1 ms) but inside level 2 *)
  Alcotest.(check bool) "l2 accept" true (W.add w ~time:1000.25 ~seq:0 7);
  Alcotest.(check bool) "l2 accept 2" true (W.add w ~time:1000.75 ~seq:1 8);
  Alcotest.(check (list int)) "both promoted out of one slot, in order" [ 7; 8 ]
    (payloads (advance w ~dummy:(-1)));
  Alcotest.(check bool) "boundary covers them" true (W.boundary w > 1000.75);
  Alcotest.(check int) "drained" 0 (W.length w)

let test_rebase () =
  let w = W.create ~dummy:(-1) ~locate:no_locate () in
  ignore (W.add w ~time:3.5 ~seq:0 0);
  Alcotest.check_raises "rebase non-empty" (Invalid_argument "Timer_wheel.rebase: wheel not empty")
    (fun () -> W.rebase w ~now:10.);
  ignore (advance w ~dummy:(-1));
  W.rebase w ~now:5000.3;
  Alcotest.(check bool) "below new boundary rejected" false (W.add w ~time:5000.4 ~seq:1 1);
  Alcotest.(check bool) "new range accepted" true (W.add w ~time:5002.5 ~seq:2 2)

(* A wheel that never empties (one long timer always pending, as each
   operation's 30 s timeout is in a closed-loop run) keeps a full
   level-2 ring of horizon past its current window: 70 s in, a timer
   5 ms past the boundary still fits. *)
let test_rolling_horizon () =
  let w = W.create ~dummy:(-1) ~locate:no_locate () in
  let seq = ref 0 in
  let add ~time x =
    incr seq;
    W.add w ~time ~seq:!seq x
  in
  (* Two self-rescheduling timers: a 5 ms tick and the 30 s timeout. *)
  let period x = if x = 0 then 5. else 30_000. in
  ignore (add ~time:5. 0);
  ignore (add ~time:30_000. 1);
  while W.boundary w < 70_000. && W.length w > 0 do
    List.iter
      (fun (time, _, x) -> ignore (add ~time:(time +. period x) x))
      (advance w ~dummy:(-1))
  done;
  Alcotest.(check bool) "add at boundary + 5 ms" true (add ~time:(W.boundary w +. 5.) 0);
  Alcotest.(check bool) "ran past 70 s without emptying" true (W.boundary w >= 70_000.);
  Alcotest.(check bool) "horizon a full ring ahead" true
    (W.horizon w >= W.boundary w +. 65_000.)

(* Promoting or draining a slot hands its entries off; the slot's
   buffer is reused, so it must drop them, or the wheel keeps every
   event it ever held reachable. The watched block is allocated in a
   separate function so no local root of the test holds it. *)
let[@inline never] add_watched w ~weak ~time =
  let payload = Bytes.make 64 'x' in
  Weak.set weak 0 (Some payload);
  ignore (W.add w ~time ~seq:0 payload)

let test_handoff_releases_entries () =
  let w = W.create ~dummy:Bytes.empty ~locate:no_locate () in
  let weak = Weak.create 1 in
  (* past the level-1 rotation: promoted, then drained *)
  add_watched w ~weak ~time:1000.5;
  let drained = ref 0 in
  while W.length w > 0 do
    drained := !drained + List.length (advance w ~dummy:Bytes.empty)
  done;
  Alcotest.(check int) "drained once" 1 !drained;
  Gc.full_major ();
  Alcotest.(check bool) "handed-off entry collected" false (Weak.check weak 0);
  Alcotest.(check bool) "wheel still accepts" true
    (W.add w ~time:(W.boundary w +. 1.) ~seq:1 Bytes.empty)

(* A wheel whose [locate] records each entry's latest cell, as the
   engine keeps it in the event. *)
let located_wheel () =
  let cells = Hashtbl.create 8 in
  let w = W.create ~dummy:(-1) ~locate:(fun x pos -> Hashtbl.replace cells x pos) () in
  let remove x = W.remove w ~pos:(Hashtbl.find cells x) x in
  (w, remove)

let test_remove_level1 () =
  let w, remove = located_wheel () in
  List.iteri (fun seq (time, x) -> ignore (W.add w ~time ~seq x)) [ (5.1, 0); (5.2, 1); (5.3, 2); (7.5, 3) ];
  remove 0;
  Alcotest.(check int) "length drops at once" 3 (W.length w);
  (* the slot's last entry moved into the hole: its new cell is known *)
  remove 2;
  Alcotest.(check int) "moved entry removable" 2 (W.length w);
  remove 0;
  Alcotest.(check int) "second remove is a no-op" 2 (W.length w);
  Alcotest.(check (list int)) "slot 5 keeps the rest" [ 1 ] (payloads (advance w ~dummy:(-1)));
  Alcotest.(check (list int)) "slot 7 untouched" [ 3 ] (payloads (advance w ~dummy:(-1)));
  Alcotest.(check int) "empty" 0 (W.length w)

let test_remove_level2 () =
  let w, remove = located_wheel () in
  (* 1 000 ms out: level 2, promoted into level 1 by the first advance *)
  List.iteri (fun seq x -> ignore (W.add w ~time:(1000.25 +. (0.1 *. float_of_int x)) ~seq x)) [ 0; 1; 2; 3 ];
  ignore (W.add w ~time:1001.5 ~seq:4 4);
  remove 1;
  Alcotest.(check int) "removed from level 2" 4 (W.length w);
  Alcotest.(check (list int)) "promoted without it" [ 0; 2; 3 ] (payloads (advance w ~dummy:(-1)));
  (* 4 now sits in a level-1 slot, at the cell [promote] reported *)
  Alcotest.(check int) "one left" 1 (W.length w);
  remove 4;
  Alcotest.(check int) "removed after promotion" 0 (W.length w);
  (* drained entries have left the wheel: removing one does nothing *)
  ignore (W.add w ~time:(W.boundary w +. 0.5) ~seq:5 5);
  remove 0;
  Alcotest.(check int) "drained entry: no-op" 1 (W.length w);
  Alcotest.(check (list int)) "later entry intact" [ 5 ] (payloads (advance w ~dummy:(-1)))

(* {2 Engine-level behaviour (wheel + heap together)} *)

let fire_order ~schedule =
  let eng = Engine.create () in
  let order = ref [] in
  schedule eng (fun tag () -> order := tag :: !order);
  Engine.run eng;
  List.rev !order

let test_equal_timestamp_fifo () =
  let order =
    fire_order ~schedule:(fun eng tag ->
        for i = 0 to 9 do
          ignore (Engine.schedule_at eng ~time:5. (tag i))
        done)
  in
  Alcotest.(check (list int)) "FIFO at equal times" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] order

let test_cancellation () =
  let eng = Engine.create () in
  let fired = ref [] in
  let keep = Engine.schedule_at eng ~time:2. (fun () -> fired := 0 :: !fired) in
  let drop_wheel = Engine.schedule_at eng ~time:3. (fun () -> fired := 1 :: !fired) in
  (* below the initial boundary: lands in the heap *)
  let drop_heap = Engine.schedule_at eng ~time:0.5 (fun () -> fired := 2 :: !fired) in
  ignore keep;
  Engine.cancel drop_wheel;
  Engine.cancel drop_heap;
  Engine.cancel drop_heap;
  Alcotest.(check int) "pending excludes cancelled" 1 (Engine.pending_events eng);
  Alcotest.(check bool) "cancelled not pending" false (Engine.is_pending drop_wheel);
  Engine.run eng;
  Alcotest.(check (list int)) "only the kept event fired" [ 0 ] (List.rev !fired);
  Alcotest.(check int) "events executed" 1 (Engine.events_executed eng)

let test_overflow_handoff () =
  (* Events beyond the wheel horizon live in the heap until the wheel
     rolls forward; order must still be global (time, seq). *)
  let order =
    fire_order ~schedule:(fun eng tag ->
        ignore (Engine.schedule_at eng ~time:200_000. (tag 3));
        ignore (Engine.schedule_at eng ~time:70_000. (tag 2));
        ignore (Engine.schedule_at eng ~time:100. (tag 0));
        ignore (Engine.schedule_at eng ~time:65_000. (tag 1)))
  in
  Alcotest.(check (list int)) "horizon overflow ordered" [ 0; 1; 2; 3 ] order

(* {2 Property: wheel + heap scheduling is order-identical to the
   heap-only model} *)

let prop_engine_order_matches_heap_model =
  QCheck.Test.make ~name:"engine (wheel+heap) fires in (time, seq) order" ~count:300
    QCheck.(list (int_range 0 3000))
    (fun raw ->
      (* Offsets in tenths of ms spanning both wheel levels, the
         pre-boundary heap path and duplicates for FIFO ties. *)
      let times = List.map (fun i -> float_of_int i /. 10.) raw in
      let eng = Engine.create () in
      let fired = ref [] in
      List.iteri
        (fun seq time ->
          ignore (Engine.schedule_at eng ~time (fun () -> fired := (time, seq) :: !fired)))
        times;
      Engine.run eng;
      let got = List.rev !fired in
      let model =
        List.mapi (fun seq time -> (time, seq)) times
        |> List.sort (fun (ta, sa) (tb, sb) ->
               let c = Float.compare ta tb in
               if c <> 0 then c else Int.compare sa sb)
      in
      got = model)

(* Self-rescheduling chains of timers (0.05 to 400 ms apart) next to
   one always-pending 30 s timer, for 300 s of virtual time: the wheel
   never empties, so it must roll rather than rebase. The model is a
   heap-only queue ordered by (time, seq), with seq counting schedules
   exactly as the engine does. *)
let prop_rolling_wheel_matches_heap_model =
  let module Q = Set.Make (struct
    type t = float * int * int (* time, seq, chain *)

    let compare (ta, sa, _) (tb, sb, _) =
      let c = Float.compare ta tb in
      if c <> 0 then c else Int.compare sa sb
  end) in
  QCheck.Test.make ~name:"rolling wheel fires in heap-model order over 300 s" ~count:30
    QCheck.(list_of_size Gen.(int_range 1 6) (list_of_size Gen.(int_range 1 8) (int_range 1 8000)))
    (fun chains ->
      let until = 300_000. in
      let chains = Array.of_list (List.map Array.of_list chains) in
      (* Chain [-1] is the 30 s timer; chain [c] cycles through its
         delays, given in units of 0.05 ms. *)
      let delay c k =
        if c < 0 then 30_000.
        else
          let d = chains.(c) in
          float_of_int d.(k mod Array.length d) *. 0.05
      in
      let starts = List.init (Array.length chains + 1) (fun i -> i - 1) in
      let eng = Engine.create () in
      let fired = ref [] in
      let rec arm c k =
        ignore
          (Engine.schedule eng ~delay:(delay c k) (fun () ->
               fired := (Engine.now eng, c) :: !fired;
               if Engine.now eng < until then arm c (k + 1)))
      in
      List.iter (fun c -> arm c 0) starts;
      Engine.run eng;
      let model =
        let q = ref Q.empty and seq = ref 0 and next_k = Hashtbl.create 8 in
        let push ~now c =
          let k = Option.value (Hashtbl.find_opt next_k c) ~default:0 in
          Hashtbl.replace next_k c (k + 1);
          q := Q.add (now +. delay c k, !seq, c) !q;
          incr seq
        in
        List.iter (push ~now:0.) starts;
        let out = ref [] in
        while not (Q.is_empty !q) do
          let ((time, _, c) as ev) = Q.min_elt !q in
          q := Q.remove ev !q;
          out := (time, c) :: !out;
          if time < until then push ~now:time c
        done;
        List.rev !out
      in
      List.rev !fired = model)

let prop_wheel_never_loses_events =
  QCheck.Test.make ~name:"wheel add/advance conserves events" ~count:300
    QCheck.(list (pair (int_range 0 70_000) small_nat))
    (fun raw ->
      let w = W.create ~dummy:(-1) ~locate:no_locate () in
      let in_wheel = ref 0 in
      List.iteri
        (fun i (t, _) ->
          if W.add w ~time:(float_of_int t /. 1.7) ~seq:i i then incr in_wheel)
        raw;
      let emitted = ref 0 in
      let ok = ref true in
      while W.length w > 0 do
        let b = W.boundary w in
        List.iter
          (fun (time, _, _) ->
            incr emitted;
            (* nothing below the pre-advance boundary is ever stored *)
            if time < b then ok := false)
          (advance w ~dummy:(-1))
      done;
      !ok && !emitted = !in_wheel)

let () =
  Alcotest.run "timer_wheel"
    [
      ( "wheel",
        [
          Alcotest.test_case "rejects edges to heap" `Quick test_reject_edges;
          Alcotest.test_case "advance drains slot batches" `Quick test_advance_drains_in_slot_batches;
          Alcotest.test_case "level-2 promotion" `Quick test_level2_promotion;
          Alcotest.test_case "rebase" `Quick test_rebase;
          Alcotest.test_case "rolling horizon" `Quick test_rolling_horizon;
          Alcotest.test_case "handoff releases entries" `Quick test_handoff_releases_entries;
          Alcotest.test_case "remove in level 1" `Quick test_remove_level1;
          Alcotest.test_case "remove in level 2 and after promotion" `Quick test_remove_level2;
        ] );
      ( "engine",
        [
          Alcotest.test_case "equal-timestamp FIFO" `Quick test_equal_timestamp_fifo;
          Alcotest.test_case "cancellation" `Quick test_cancellation;
          Alcotest.test_case "wheel-heap overflow handoff" `Quick test_overflow_handoff;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_engine_order_matches_heap_model;
            prop_rolling_wheel_matches_heap_model;
            prop_wheel_never_loses_events;
          ] );
    ]
