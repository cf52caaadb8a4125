(* A pending event is data: a thunk, a guarded action, or a message
   delivery. Its time and sequence number live only in the unboxed key
   arrays of the store that holds it. An event that has fired or been
   cancelled has the action [dead]; a delivery has no handle, so it can
   neither be cancelled nor seen again once it has fired. A cancellable
   event keeps [pos], the timer-wheel cell it was last placed in ([-1]:
   never in the wheel), and its engine, so that [cancel] takes it out
   of the wheel at once. *)
type event =
  | Thunk of { mutable action : unit -> unit; mutable pos : int; engine : t }
  | Guarded : {
      guard : 's -> int -> bool;
      state : 's;
      stamp : int;
      mutable action : unit -> unit;
      mutable pos : int;
      engine : t;
    }
      -> event
  | Delivery : {
      handler : src:int -> dst:int -> 'm -> unit;
      src : int;
      dst : int;
      msg : 'm;
    }
      -> event

(* Pending events live in three places:
   - the hierarchical timer wheel, O(1) insert for the dense
     near-horizon timers; every event in it is at or after its
     [boundary];
   - the run: the wheel slot crossed last, sorted by (time, seq). Slot
     placement is monotone in time, so every event left in the wheel is
     at or after every run entry;
   - the heap: events scheduled below [boundary] while the run is being
     consumed (local deliveries, zero-delay continuations), plus any the
     wheel rejected (past its horizon, or on a float edge).
   The next event is the smaller (time, seq) of the run head and the
   heap top, so the firing order is exactly the global (time, seq)
   order and the wheel never changes observable behaviour. [refill]
   crosses the next wheel slot once the run is consumed, unless the
   heap top is below [boundary]: that fires first, and keeping the
   boundary low keeps more new events in the wheel. The wheel is
   re-anchored only when the run is consumed: re-anchoring can move
   [boundary] back, and a wheel slot must never come to hold an event
   due before a run entry. A cancelled event leaves the wheel at once;
   in the run or the heap it is dropped when it reaches the front. *)
and t = {
  mutable clock : float;
  mutable next_seq : int;
  mutable live : int; (* pending (not cancelled, not fired) events *)
  heap : event Event_heap.t;
  run : event Event_heap.run;
  wheel : event Timer_wheel.t;
  mutable boundary : float; (* [Timer_wheel.boundary wheel], cached *)
  mutable fired : int; (* events executed since creation *)
  root_rng : Dq_util.Rng.t;
  bus : Dq_telemetry.Bus.t;
}

type handle = event

(* The action of a fired or cancelled event. *)
let dead () = ()

let locate ev pos =
  match ev with
  | Thunk r -> r.pos <- pos
  | Guarded r -> r.pos <- pos
  | Delivery _ -> ()

let create ?(seed = 1L) () =
  (* The dummy only fills vacated store cells; it is never scheduled. *)
  let dummy = Delivery { handler = (fun ~src:_ ~dst:_ () -> ()); src = 0; dst = 0; msg = () } in
  let wheel = Timer_wheel.create ~dummy ~locate () in
  let t =
    {
      clock = 0.;
      next_seq = 0;
      live = 0;
      heap = Event_heap.create ~dummy;
      run = Event_heap.create_run ~dummy;
      wheel;
      boundary = Timer_wheel.boundary wheel;
      fired = 0;
      root_rng = Dq_util.Rng.create seed;
      bus = Dq_telemetry.Bus.create ();
    }
  in
  Dq_telemetry.Bus.set_now t.bus (fun () -> t.clock);
  t

let now t = t.clock

let telemetry t = t.bus

let rng t = t.root_rng

let split_rng t = Dq_util.Rng.split t.root_rng

let events_executed t = t.fired

let enqueue t ~time ev =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.live <- t.live + 1;
  if Timer_wheel.length t.wheel = 0 && t.run.pos = t.run.stop then begin
    Timer_wheel.rebase t.wheel ~now:t.clock;
    t.boundary <- Timer_wheel.boundary t.wheel
  end;
  if not (Timer_wheel.add t.wheel ~time ~seq ev) then Event_heap.push t.heap ~time ~seq ev

let schedule_at t ~time f =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is before now %g" time t.clock);
  let ev = Thunk { action = f; pos = -1; engine = t } in
  enqueue t ~time ev;
  ev

let schedule t ~delay f =
  if delay < 0. then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock +. delay) f

let schedule_guarded t ~delay ~guard state stamp f =
  if delay < 0. then invalid_arg "Engine.schedule_guarded: negative delay";
  let ev = Guarded { guard; state; stamp; action = f; pos = -1; engine = t } in
  enqueue t ~time:(t.clock +. delay) ev;
  ev

let schedule_delivery t ~delay handler ~src ~dst msg =
  if delay < 0. then invalid_arg "Engine.schedule_delivery: negative delay";
  enqueue t ~time:(t.clock +. delay) (Delivery { handler; src; dst; msg })

(* [live] is decremented exactly once per event: at cancel time, or when
   the event fires. A cancelled event leaves the wheel now; one already
   in the run or the heap stays queued until it reaches the front, so it
   drops its action now: whatever the closure holds can be collected at
   once. *)
let cancel ev =
  match ev with
  | Thunk r ->
    if r.action != dead then begin
      r.action <- dead;
      r.engine.live <- r.engine.live - 1;
      Timer_wheel.remove r.engine.wheel ~pos:r.pos ev
    end
  | Guarded r ->
    if r.action != dead then begin
      r.action <- dead;
      r.engine.live <- r.engine.live - 1;
      Timer_wheel.remove r.engine.wheel ~pos:r.pos ev
    end
  | Delivery _ -> ()

let is_pending = function
  | Thunk { action; _ } | Guarded { action; _ } -> action != dead
  | Delivery _ -> true

let pending_events t = t.live

(* Once the run is consumed, cross the next wheel slot unless the heap
   top already precedes everything the wheel holds. *)
let refill t =
  let heap = t.heap in
  if
    t.run.pos = t.run.stop
    && Timer_wheel.length t.wheel > 0
    && (heap.len = 0 || heap.times.(0) >= t.boundary)
  then begin
    Timer_wheel.advance t.wheel t.run;
    t.boundary <- Timer_wheel.boundary t.wheel
  end

type front = Empty | Run_head | Heap_top

(* Where the next event sits, after [refill]. *)
let front t =
  refill t;
  let run = t.run and heap = t.heap in
  let i = run.pos in
  if i < run.stop then
    if heap.len = 0 then Run_head
    else begin
      let rt = run.r_times.(i) and ht = heap.times.(0) in
      if rt < ht || (rt = ht && run.r_seqs.(i) < heap.seqs.(0)) then Run_head
      else Heap_top
    end
  else if heap.len > 0 then Heap_top
  else Empty

(* Fire a live event whose store cell has been vacated and whose time
   is already on the clock. *)
let fire t ev =
  t.live <- t.live - 1;
  t.fired <- t.fired + 1;
  match ev with
  | Thunk r ->
    let f = r.action in
    r.action <- dead;
    f ()
  | Guarded r ->
    let f = r.action in
    r.action <- dead;
    if r.guard r.state r.stamp then f ()
  | Delivery { handler; src; dst; msg } -> handler ~src ~dst msg

(* The clock is written only when time moves: a write boxes the float,
   and bursts share an instant. *)
let rec step t =
  match front t with
  | Empty -> false
  | Run_head ->
    let run = t.run in
    let ev = run.r_data.(run.pos) in
    if is_pending ev then begin
      let time = run.r_times.(run.pos) in
      if time > t.clock then t.clock <- time;
      Event_heap.drop_head run;
      fire t ev;
      true
    end
    else begin
      Event_heap.drop_head run;
      step t
    end
  | Heap_top ->
    let heap = t.heap in
    let ev = heap.data.(0) in
    if is_pending ev then begin
      let time = heap.times.(0) in
      if time > t.clock then t.clock <- time;
      Event_heap.remove_min heap;
      fire t ev;
      true
    end
    else begin
      Event_heap.remove_min heap;
      step t
    end

(* Whether an event will fire at or before [limit], dropping cancelled
   events from the front on the way. *)
let rec due_by t limit =
  match front t with
  | Empty -> false
  | Run_head ->
    let run = t.run in
    if is_pending run.r_data.(run.pos) then run.r_times.(run.pos) <= limit
    else begin
      Event_heap.drop_head run;
      due_by t limit
    end
  | Heap_top ->
    let heap = t.heap in
    if is_pending heap.data.(0) then heap.times.(0) <= limit
    else begin
      Event_heap.remove_min heap;
      due_by t limit
    end

let run ?until ?max_events t =
  let budget = match max_events with None -> max_int | Some m -> m in
  let fired = ref 0 in
  match until with
  | None ->
    while !fired < budget && step t do
      incr fired
    done
  | Some limit ->
    while !fired < budget && due_by t limit && step t do
      incr fired
    done;
    if t.clock < limit then t.clock <- limit

let run_while t cond =
  let rec loop () = if cond () && step t then loop () in
  loop ()
