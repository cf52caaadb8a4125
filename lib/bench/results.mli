(** The schema-4 bench-results JSON writer.

    Self-describing: the file carries the scenario definition (name,
    version, seed, smoke flag, topology/workload parameters, sweep
    axes) alongside one result object per run, keyed by run id — the
    protocol name, or ["proto@wan=2,w=0.5"] for sweep cells.

    Every metric is measured in virtual time, so the document is a pure
    function of the seed. [dune runtest] diffs fresh smoke runs against
    [bench/baselines/] byte for byte; after a deliberate behaviour
    change, [dune promote] accepts the new files. Wall-clock seconds
    appear only in the CLI's stdout table.

    Validated by [scripts/validate_bench.py] (schema 4). *)

val run_id : Scenario.outcome -> sweep:bool -> string

val render :
  ?sweep_axes:float list * float list ->
  smoke:bool ->
  seed:int64 ->
  Scenario.t ->
  Scenario.outcome list ->
  string
(** The full results document. [sweep_axes = (wan_scales,
    write_ratios)] marks a sweep file and records the axes. *)

val write_file : string -> string -> unit
(** [write_file path contents]. *)
