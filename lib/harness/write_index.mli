(** Per-key index of a history's completed writes, shared by
    {!Regular_checker} and {!Staleness} so that each per-read question
    ("which writes had completed when this read began?") is a binary
    search instead of a scan of the key's writes.

    A write is {e completed} when both its [responded] and its [lc] are
    [Some]. Building the index costs one pass over the history plus one
    sort per key: O(W log W) for W writes. *)

type key_writes = private {
  writes : History.op array;  (** the key's completed writes, in input order *)
  lcs : Dq_storage.Lc.t array;  (** [lcs.(i)] is the clock of [writes.(i)] *)
  ends : float array;  (** [ends.(i)] is the response time of [writes.(i)] *)
  by_end : int array;
      (** positions in [writes], ascending response time; equal times
          keep input order *)
  sorted_ends : float array;  (** [sorted_ends.(j) = ends.(by_end.(j))] *)
}

val build : History.op list -> (Dq_storage.Key.t, key_writes) Hashtbl.t
(** Keys without a completed write are absent. *)

val partition_point : int -> (int -> bool) -> int
(** [partition_point n p] is the number of leading indices of [0 .. n-1]
    that satisfy [p], for a [p] that holds up to some index and fails
    from there on: a binary search. *)

val ended_by : key_writes -> float -> int
(** [ended_by kw t] is the number of writes that responded at or before
    [t]: those at [by_end.(0)] .. [by_end.(n - 1)]. *)

val by_lc : key_writes -> int array
(** Positions in [writes], ascending clock; equal clocks keep input
    order. *)
