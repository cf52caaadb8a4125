type event = {
  time : float;
  seq : int;
  mutable action : unit -> unit; (* [ignore] once cancelled *)
  mutable cancelled : bool;
  live : int ref; (* shared with the owning engine *)
}

type handle = event

(* Pending events live in two places: the hierarchical timer wheel
   (O(1) insert for the dense near-horizon timers) and the event heap
   (imminent events — below the wheel's boundary — plus anything the
   wheel rejected: far-future overflow and float-edge cases). [refill]
   migrates wheel slots into the heap as the boundary advances, so the
   heap's (time, seq) order remains the exact global firing order and
   the wheel never changes observable behaviour. *)
type t = {
  mutable clock : float;
  mutable next_seq : int;
  live : int ref; (* pending (not cancelled, not fired) events *)
  queue : event Event_heap.t;
  wheel : event Timer_wheel.t;
  mutable fired : int; (* events executed since creation *)
  root_rng : Dq_util.Rng.t;
  bus : Dq_telemetry.Bus.t;
}

let create ?(seed = 1L) () =
  (* The dummy only fills vacated heap/wheel slots; it is never scheduled. *)
  let dummy = { time = 0.; seq = -1; action = ignore; cancelled = true; live = ref 0 } in
  let t =
    {
      clock = 0.;
      next_seq = 0;
      live = ref 0;
      queue = Event_heap.create ~dummy;
      wheel = Timer_wheel.create ~dummy ();
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

let schedule_at t ~time f =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is before now %g" time t.clock);
  let ev = { time; seq = t.next_seq; action = f; cancelled = false; live = t.live } in
  t.next_seq <- t.next_seq + 1;
  incr t.live;
  if Timer_wheel.length t.wheel = 0 then Timer_wheel.rebase t.wheel ~now:t.clock;
  if not (Timer_wheel.add t.wheel ~time ~seq:ev.seq ev) then
    Event_heap.push t.queue ~time ~seq:ev.seq ev;
  ev

let schedule t ~delay f =
  if delay < 0. then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock +. delay) f

(* [live] is decremented exactly once per event: at cancel time, or when
   the event fires. Popping an already-cancelled event does not touch it.
   A cancelled event stays queued until its due time, so it drops its
   action now: whatever the closure holds can be collected at once. *)
let cancel ev =
  if not ev.cancelled then begin
    ev.cancelled <- true;
    ev.action <- ignore;
    decr ev.live
  end

let is_pending ev = not ev.cancelled

let pending_events t = !(t.live)

(* Migrate wheel slots into the heap until the heap's minimum is
   strictly below the wheel boundary (and hence the global minimum),
   or the wheel empties. *)
let refill t =
  let continue_ = ref (Timer_wheel.length t.wheel > 0) in
  while !continue_ do
    (match Event_heap.peek t.queue with
    | Some ev when ev.time < Timer_wheel.boundary t.wheel -> continue_ := false
    | Some _ | None ->
      Timer_wheel.advance t.wheel ~drain:(fun ~time ~seq ev ->
          Event_heap.push t.queue ~time ~seq ev));
    if Timer_wheel.length t.wheel = 0 then continue_ := false
  done

let step t =
  let rec next () =
    refill t;
    match Event_heap.pop t.queue with
    | None -> false
    | Some ev when ev.cancelled -> next ()
    | Some ev ->
      t.clock <- ev.time;
      ev.cancelled <- true;
      decr t.live;
      t.fired <- t.fired + 1;
      ev.action ();
      true
  in
  next ()

(* The time of the next event that will actually fire, dropping
   cancelled events from the heap top so [Event_heap.peek] reflects
   it. *)
let rec next_time t =
  refill t;
  match Event_heap.peek t.queue with
  | None -> None
  | Some ev when ev.cancelled ->
    ignore (Event_heap.pop t.queue);
    next_time t
  | Some ev -> Some ev.time

let run ?until ?max_events t =
  let fired = ref 0 in
  let budget_ok () =
    match max_events with None -> true | Some m -> !fired < m
  in
  let horizon_ok () =
    match until with
    | None -> true
    | Some limit -> (
      match next_time t with None -> false | Some time -> time <= limit)
  in
  let rec loop () =
    if budget_ok () && horizon_ok () then
      if step t then begin
        incr fired;
        loop ()
      end
  in
  loop ();
  match until with
  | Some limit when t.clock < limit -> t.clock <- limit
  | Some _ | None -> ()

let run_while t cond =
  let rec loop () = if cond () && step t then loop () in
  loop ()
