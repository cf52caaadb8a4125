(** The benchmark's metric table, percentiles and output formats. *)

type better = Higher | Lower

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float option;
      (** end-to-end metrics only: the share of the parent's median by
          which the metric may worsen before a change is a regression *)
}

val end_to_end : metric list
(** Reported by untraced runs. *)

val per_layer : metric list
(** Reported by traced runs. *)

val find : string -> metric option

val valid_name : string -> bool
(** 1–64 of letters, digits, [_], [.] and [-], starting with a letter
    or digit. *)

val valid_unit : string -> bool
(** 1–16 of letters, digits, [_], [/], [%], [.] and [-]. *)

type tail = {
  value : float;
  samples : int;  (** sample count *)
  beyond : int;  (** samples ranked above the percentile *)
}

val percentile : float list -> float -> tail
(** [percentile xs p], [p] in [\[0, 100\]], by linear interpolation
    between closest ranks; [nan] with no samples. *)

val median : float list -> float

val number : float -> string
(** The shortest JSON number that reads back as the same float. *)

val result_line :
  correct:bool -> attempted:int -> failed:int -> (metric * float) list -> string
(** The one-line JSON result every run ends with. *)

val benchmark_json :
  command:string list ->
  paths:string list ->
  run_seconds:int ->
  workloads:(string * string) list ->
  string
(** The benchmark definition ([BENCHMARK.json]) for this metric table. *)
