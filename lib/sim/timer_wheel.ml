(* A two-level hierarchical timer wheel over absolute virtual times.

   Level 1 is a ring of [l1_slots] slots of [slot_ms] each; level 2 a
   ring of [l2_slots] slots spanning one full level-1 rotation each.
   The wheel never fires events itself: it stores them until the owner
   advances the boundary, at which point the events of the crossed
   slot are loaded into the owner's sorted run (see {!Event_heap}),
   which provides the exact (time, seq) total order. Events outside
   the covered horizon — or on a float-rounding edge where the slot
   computation disagrees with the boundary comparison — are rejected at
   [add] and must live in the owner's heap: the wheel <-> heap overflow
   handoff. Rejecting edge cases to the heap is always safe; placing an
   event in a too-late slot never is, so membership is decided by the
   slot index itself.

   The level-2 ring rolls: rotation [r] (counted from [base2]) lives in
   slot [r mod l2_slots] and is valid for [next2 <= r < next2 +
   l2_slots], so promoting a rotation frees its slot for the rotation
   [l2_slots] later and the horizon stays a full level-2 ring past the
   current window however long the wheel goes without emptying.

   Slot buffers are grown-once flat arrays reused across drains, so a
   schedule into the wheel allocates nothing in steady state. A slot
   handed off (promoted or drained) resets its entries to [dummy]: the
   buffer outlives the events, and must not keep a fired event (and
   whatever its closure holds) reachable.

   Every placement of an entry is reported to [locate] as a cell
   number: [(index lsl 9) lor ring_cell], where [ring_cell] is the slot
   in level 1 (0-255) or 256 + the slot in level 2. [remove] takes that
   number back and swap-removes the entry in O(1) if the cell still
   holds it. Order inside a slot carries no meaning until [advance]
   sorts it, so the swap changes nothing observable. *)

type 'a slot = {
  mutable times : float array;
  mutable seqs : int array;
  mutable data : 'a array;
  mutable len : int;
}

type 'a t = {
  dummy : 'a;
  locate : 'a -> int -> unit;
  slot_ms : float;
  unused : 'a slot; (* shared by every slot never pushed to *)
  l1 : 'a slot array;
  l2 : 'a slot array;
  mutable base1 : float; (* absolute start of the level-1 window *)
  mutable cursor : int; (* current level-1 slot; boundary = end of it *)
  mutable base2 : float; (* absolute start of rotation 0 *)
  mutable next2 : int; (* next rotation to promote into level 1 *)
  mutable count : int; (* events stored across both levels *)
}

let l1_slots = 256
let l2_slots = 256 (* a power of two: rotation [r] sits in slot [r land (l2_slots - 1)] *)

(* Cell numbers: see the header. *)
let cell_bits = 9 (* l1_slots + l2_slots = 2^9 ring cells *)

let l2_cells = l1_slots (* ring cells at or above it are in level 2 *)

let fresh_slot () = { times = [||]; seqs = [||]; data = [||]; len = 0 }

(* The slot [idx] (in range) of [ring], with room for one more entry.
   A slot gets its own buffers on its first push, so [create] allocates
   two arrays rather than 512 slots. *)
let writable_slot w ring idx =
  let s =
    let s = Array.unsafe_get ring idx in
    if s != w.unused then s
    else begin
      let s = fresh_slot () in
      Array.unsafe_set ring idx s;
      s
    end
  in
  if s.len = Array.length s.data then begin
    let cap = Stdlib.max 8 (2 * s.len) in
    let times = Array.make cap 0. in
    let seqs = Array.make cap 0 in
    let data = Array.make cap w.dummy in
    Array.blit s.times 0 times 0 s.len;
    Array.blit s.seqs 0 seqs 0 s.len;
    Array.blit s.data 0 data 0 s.len;
    s.times <- times;
    s.seqs <- seqs;
    s.data <- data
  end;
  s

(* [cell] is [idx] for level 1 and [l2_cells + idx] for level 2. *)
let slot_push w ring idx ~cell ~time ~seq x =
  let s = writable_slot w ring idx in
  let i = s.len in
  s.times.(i) <- time;
  s.seqs.(i) <- seq;
  s.data.(i) <- x;
  s.len <- i + 1;
  w.locate x ((i lsl cell_bits) lor cell)

let create ?(slot_ms = 1.0) ~dummy ~locate () =
  if slot_ms <= 0. then invalid_arg "Timer_wheel.create: slot_ms must be positive";
  let unused = fresh_slot () in
  {
    dummy;
    locate;
    slot_ms;
    unused;
    l1 = Array.make l1_slots unused;
    l2 = Array.make l2_slots unused;
    base1 = 0.;
    cursor = 0;
    base2 = 0.;
    next2 = 1;
    count = 0;
  }

let length t = t.count

let rotation_ms t = t.slot_ms *. float_of_int l1_slots

(* End of the current level-1 slot: every stored event has
   [time >= boundary], so the owner may freely order anything
   strictly below it. *)
let boundary t = t.base1 +. (t.slot_ms *. float_of_int (t.cursor + 1))

(* Absolute end of the covered horizon (exclusive): the end of the
   last rotation the level-2 ring can hold. *)
let horizon t = t.base2 +. (rotation_ms t *. float_of_int (t.next2 + l2_slots))

(* Re-anchor an empty wheel so that [now] sits inside the first slot.
   Callers re-anchor whenever the wheel drains empty, which keeps the
   horizon rolling forward indefinitely. *)
let rebase t ~now =
  if t.count <> 0 then invalid_arg "Timer_wheel.rebase: wheel not empty";
  let slot = Float.of_int (int_of_float (now /. t.slot_ms)) *. t.slot_ms in
  t.base1 <- slot;
  t.cursor <- 0;
  t.base2 <- slot;
  t.next2 <- 1

let add t ~time ~seq x =
  if time < boundary t then false
  else begin
    let rot = rotation_ms t in
    let l1_end = t.base1 +. rot in
    if time < l1_end then begin
      let idx = int_of_float ((time -. t.base1) /. t.slot_ms) in
      if idx <= t.cursor || idx >= l1_slots then false
      else begin
        slot_push t t.l1 idx ~cell:idx ~time ~seq x;
        t.count <- t.count + 1;
        true
      end
    end
    (* [horizon t], written out so the float stays unboxed *)
    else if time < t.base2 +. (rot *. float_of_int (t.next2 + l2_slots)) then begin
      let r = int_of_float ((time -. t.base2) /. rot) in
      if r < t.next2 || r >= t.next2 + l2_slots then false
      else begin
        let idx = r land (l2_slots - 1) in
        slot_push t t.l2 idx ~cell:(l2_cells + idx) ~time ~seq x;
        t.count <- t.count + 1;
        true
      end
    end
    else false
  end

(* Promote rotation [next2] into the level-1 ring and advance the
   level-1 window to cover its span; its level-2 slot is then free for
   rotation [next2 + l2_slots]. An event landing one slot early from
   float rounding merely reaches the owner one slot sooner; the [add]
   index checks guarantee no event can land late. Entries move array
   to array, so no time is boxed on the way. *)
let promote t =
  t.base1 <- t.base2 +. (rotation_ms t *. float_of_int t.next2);
  t.cursor <- -1;
  let s = t.l2.(t.next2 land (l2_slots - 1)) in
  t.next2 <- t.next2 + 1;
  for i = 0 to s.len - 1 do
    let time = s.times.(i) in
    let idx = int_of_float ((time -. t.base1) /. t.slot_ms) in
    let idx = Stdlib.min (l1_slots - 1) (Stdlib.max 0 idx) in
    let d = writable_slot t t.l1 idx in
    let j = d.len and x = s.data.(i) in
    d.times.(j) <- time;
    d.seqs.(j) <- s.seqs.(i);
    d.data.(j) <- x;
    d.len <- j + 1;
    t.locate x ((j lsl cell_bits) lor idx)
  done;
  Array.fill s.data 0 s.len t.dummy;
  s.len <- 0

(* A stale [pos] (the entry was promoted, drained, or removed) finds
   another entry, the dummy or an out-of-range index in its cell, and
   the call does nothing. *)
let remove t ~pos x =
  if pos >= 0 then begin
    let cell = pos land ((1 lsl cell_bits) - 1) and i = pos lsr cell_bits in
    let s = if cell < l2_cells then t.l1.(cell) else t.l2.(cell - l2_cells) in
    if i < s.len && s.data.(i) == x then begin
      let last = s.len - 1 in
      if i < last then begin
        let moved = s.data.(last) in
        s.times.(i) <- s.times.(last);
        s.seqs.(i) <- s.seqs.(last);
        s.data.(i) <- moved;
        t.locate moved pos
      end;
      s.data.(last) <- t.dummy;
      s.len <- last;
      t.count <- t.count - 1
    end
  end

(* Advance the boundary past the next non-empty slot and load its
   events into [run], which sorts them. Requires [length t > 0]. *)
let advance t run =
  if t.count = 0 then invalid_arg "Timer_wheel.advance: empty wheel";
  let drained = ref false in
  while not !drained do
    if t.cursor + 1 >= l1_slots then promote t
    else begin
      t.cursor <- t.cursor + 1;
      let s = t.l1.(t.cursor) in
      if s.len > 0 then begin
        Event_heap.load_run run ~times:s.times ~seqs:s.seqs ~data:s.data ~len:s.len;
        t.count <- t.count - s.len;
        Array.fill s.data 0 s.len t.dummy;
        s.len <- 0;
        drained := true
      end
    end
  done
