(** Staleness metrics over a recorded history.

    The paper's case against ROWA-Async is that local reads have {e no
    worst-case staleness bound}: a read may return data arbitrarily
    long after it was overwritten. This module makes that concrete: for
    every completed read that returned a superseded value it reports

    - {b time staleness}: how long before the read's response the
      freshest overwriting write had already completed, and
    - {b version staleness}: how many completed writes the read lagged
      behind.

    For protocols with regular semantics both are always zero.

    Tie rules: completed writes with equal logical clocks each count
    toward [versions_behind]; for the read age, a clock written more
    than once resolves to its first completed write in input order.

    Cost: both measures index each key's completed writes once (see
    {!Write_index}). [measure] sweeps each key's reads in invocation
    order against its writes in response order through a Fenwick tree
    over clock ranks; [measure_age] binary-searches the writes in clock
    order. Both take O((R + W) log W) for R reads and W writes. *)

type stale_read = {
  read : History.op;
  behind_ms : float;      (** time since the freshest missed write completed *)
  versions_behind : int;  (** completed writes between returned and freshest *)
}

type report = {
  checked : int;          (** completed reads examined *)
  stale : stale_read list;
  max_behind_ms : float;  (** 0 when nothing is stale *)
  mean_behind_ms : float; (** over stale reads only; 0 when none *)
  max_versions_behind : int;
}

val measure : History.op list -> report

type age_report = {
  reads : int;          (** completed reads examined *)
  mean_age_ms : float;  (** over all completed reads; 0 when none *)
  max_age_ms : float;
}

val measure_age : History.op list -> age_report
(** Instantaneous age of the value each completed read returned: time
    since the write that produced the returned version completed, 0
    when that write's response was still in flight at read completion
    or the value is the initial one — the offline twin of the online
    {!Dq_telemetry.Aoi} read-age metric. *)

val stale_fraction : report -> float
(** Stale reads over checked reads; [0.] when no reads completed. *)

val pp : Format.formatter -> report -> unit
