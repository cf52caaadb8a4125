type 'a t = {
  mutable times : float array; (* unboxed float keys *)
  mutable seqs : int array;
  mutable data : 'a array;
  mutable len : int; (* slots 0 .. len-1 form a heap *)
  dummy : 'a;
}

let create ~dummy = { times = [||]; seqs = [||]; data = [||]; len = 0; dummy }

let size t = t.len

let is_empty t = t.len = 0

(* Both operands are statically floats/ints, so these compile to primitive
   (monomorphic) comparisons — no closure, no polymorphic compare. *)
let less t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  ti < tj || (ti = tj && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let time = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- time;
  let seq = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- seq;
  let x = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- x

let ensure_capacity t =
  if t.len = Array.length t.data then begin
    let cap = Stdlib.max 16 (2 * t.len) in
    let times = Array.make cap 0. in
    let seqs = Array.make cap 0 in
    let data = Array.make cap t.dummy in
    Array.blit t.times 0 times 0 t.len;
    Array.blit t.seqs 0 seqs 0 t.len;
    Array.blit t.data 0 data 0 t.len;
    t.times <- times;
    t.seqs <- seqs;
    t.data <- data
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let push t ~time ~seq x =
  ensure_capacity t;
  let i = t.len in
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.data.(i) <- x;
  t.len <- i + 1;
  sift_up t i

let rec sift_down t i =
  let l = (2 * i) + 1 in
  let r = l + 1 in
  let smallest = if l < t.len && less t l i then l else i in
  let smallest = if r < t.len && less t r smallest then r else smallest in
  if smallest <> i then begin
    swap t i smallest;
    sift_down t smallest
  end

let remove_min t =
  if t.len = 0 then invalid_arg "Event_heap.remove_min: empty heap";
  let last = t.len - 1 in
  t.len <- last;
  t.times.(0) <- t.times.(last);
  t.seqs.(0) <- t.seqs.(last);
  t.data.(0) <- t.data.(last);
  t.data.(last) <- t.dummy;
  if last > 0 then sift_down t 0

(* {2 Sorted runs} *)

(* Merge sort's buffers, as long as the run's own. *)
type 'a scratch = { s_times : float array; s_seqs : int array; s_data : 'a array }

type 'a run = {
  mutable r_times : float array;
  mutable r_seqs : int array;
  mutable r_data : 'a array;
  mutable pos : int; (* next unconsumed entry *)
  mutable stop : int; (* entries pos .. stop-1 are pending *)
  r_dummy : 'a;
  mutable scratch : 'a scratch;
}

let create_run ~dummy =
  {
    r_times = [||];
    r_seqs = [||];
    r_data = [||];
    pos = 0;
    stop = 0;
    r_dummy = dummy;
    scratch = { s_times = [||]; s_seqs = [||]; s_data = [||] };
  }

(* Stable insertion sort of entries [lo, hi) by (time, seq). *)
let insertion_sort r lo hi =
  let times = r.r_times and seqs = r.r_seqs and data = r.r_data in
  for i = lo + 1 to hi - 1 do
    let time = times.(i) and seq = seqs.(i) in
    let j = ref (i - 1) in
    while
      !j >= lo
      && (let tj = times.(!j) in
          tj > time || (tj = time && seqs.(!j) > seq))
    do
      decr j
    done;
    let dst = !j + 1 in
    if dst < i then begin
      let x = data.(i) in
      Array.blit times dst times (dst + 1) (i - dst);
      Array.blit seqs dst seqs (dst + 1) (i - dst);
      Array.blit data dst data (dst + 1) (i - dst);
      times.(dst) <- time;
      seqs.(dst) <- seq;
      data.(dst) <- x
    end
  done

(* Merge the sorted halves [lo, mid) and [mid, hi): the left half goes
   to the scratch buffers, then both merge back in place. Ties take the
   left entry first, so the merge is stable. *)
let merge r lo mid hi =
  let times = r.r_times and seqs = r.r_seqs and data = r.r_data in
  let { s_times; s_seqs; s_data } = r.scratch in
  let n = mid - lo in
  Array.blit times lo s_times 0 n;
  Array.blit seqs lo s_seqs 0 n;
  Array.blit data lo s_data 0 n;
  let i = ref 0 and j = ref mid and k = ref lo in
  while !i < n do
    let take_right =
      !j < hi
      &&
      let tl = s_times.(!i) and tr = times.(!j) in
      tr < tl || (tr = tl && seqs.(!j) < s_seqs.(!i))
    in
    if take_right then begin
      times.(!k) <- times.(!j);
      seqs.(!k) <- seqs.(!j);
      data.(!k) <- data.(!j);
      incr j
    end
    else begin
      times.(!k) <- s_times.(!i);
      seqs.(!k) <- s_seqs.(!i);
      data.(!k) <- s_data.(!i);
      incr i
    end;
    incr k
  done;
  Array.fill s_data 0 n r.r_dummy

(* Stable merge sort of [lo, hi) with insertion sort below 16 entries.
   Halves already in order are not merged, so an ordered slot — the
   usual case: promoted entries first, then later direct adds — costs
   one pass of comparisons. *)
let rec sort_run r lo hi =
  if hi - lo <= 16 then insertion_sort r lo hi
  else begin
    let mid = (lo + hi) / 2 in
    sort_run r lo mid;
    sort_run r mid hi;
    let tl = r.r_times.(mid - 1) and tr = r.r_times.(mid) in
    if tr < tl || (tr = tl && r.r_seqs.(mid) < r.r_seqs.(mid - 1)) then merge r lo mid hi
  end

let load_run r ~times ~seqs ~data ~len =
  if r.pos < r.stop then invalid_arg "Event_heap.load_run: run not consumed";
  if len > Array.length r.r_data then begin
    let cap = Stdlib.max 16 (Stdlib.max len (2 * Array.length r.r_data)) in
    r.r_times <- Array.make cap 0.;
    r.r_seqs <- Array.make cap 0;
    r.r_data <- Array.make cap r.r_dummy;
    r.scratch <-
      {
        s_times = Array.make cap 0.;
        s_seqs = Array.make cap 0;
        s_data = Array.make cap r.r_dummy;
      }
  end;
  Array.blit times 0 r.r_times 0 len;
  Array.blit seqs 0 r.r_seqs 0 len;
  Array.blit data 0 r.r_data 0 len;
  sort_run r 0 len;
  r.pos <- 0;
  r.stop <- len

let drop_head r =
  if r.pos >= r.stop then invalid_arg "Event_heap.drop_head: run consumed";
  r.r_data.(r.pos) <- r.r_dummy;
  r.pos <- r.pos + 1
