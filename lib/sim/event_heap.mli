(** The engine's two ordered event stores, both keyed by
    [(time : float, seq : int)]: a binary min-heap and a sorted run.

    Keys live in flat arrays, an unboxed [float array] of times and an
    [int array] of sequence numbers, and are compared with primitive
    float/int comparisons: no comparison closure, no polymorphic
    [compare]. Payloads ride along in a third array and are never
    inspected. Ordering is by ascending time, ties broken by ascending
    sequence number, which is exactly the engine's deterministic event
    order.

    Both types are [private] records so that the engine reads the
    minimum key straight out of the arrays. The build passes [-opaque],
    so nothing inlines across modules, and a float returned by a
    function of this module would be boxed on every event. *)

type 'a t = private {
  mutable times : float array;
  mutable seqs : int array;
  mutable data : 'a array;
  mutable len : int;  (** entries [0 .. len-1] form a heap; the minimum is at 0 *)
  dummy : 'a;
}
(** A binary min-heap. *)

val create : dummy:'a -> 'a t
(** [create ~dummy] makes an empty heap. [dummy] fills unused payload
    slots (so removed payloads are not retained); it is never a key's
    payload. *)

val size : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> time:float -> seq:int -> 'a -> unit

val remove_min : 'a t -> unit
(** Remove the minimum, [data.(0)]. Raises [Invalid_argument] when
    empty. *)

(** {2 Sorted runs}

    A run is a batch of entries loaded at once, sorted, then consumed
    from the front: the engine loads each timer-wheel slot it crosses
    into one run instead of sifting the slot's entries through the
    heap one at a time. *)

type 'a scratch

type 'a run = private {
  mutable r_times : float array;
  mutable r_seqs : int array;
  mutable r_data : 'a array;
  mutable pos : int;  (** the head: the next entry to consume *)
  mutable stop : int;  (** entries [pos .. stop-1] are pending *)
  r_dummy : 'a;
  mutable scratch : 'a scratch;  (** merge sort's buffers *)
}

val create_run : dummy:'a -> 'a run
(** An empty run. Its buffers are allocated on the first {!load_run}. *)

val load_run :
  'a run -> times:float array -> seqs:int array -> data:'a array -> len:int -> unit
(** Copy the first [len] entries of the three arrays into the run and
    stable-sort them by [(time, seq)]: a merge sort, O(len log len),
    and O(len) when the entries are already in order, as a wheel slot
    usually is. Raises [Invalid_argument] unless the run is fully
    consumed. *)

val drop_head : 'a run -> unit
(** Consume the head, resetting its payload cell to the dummy. Raises
    [Invalid_argument] when the run is consumed. *)
