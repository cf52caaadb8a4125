(** Fixed-bucket histograms with ASCII rendering, for latency
    distributions in CLI output. *)

type t

val create : buckets:float list -> t
(** [buckets] are the upper bounds (ascending); an implicit overflow
    bucket catches the rest. *)

val of_samples : buckets:float list -> float list -> t

val add : t -> float -> unit

val count : t -> int

val quantile : t -> float -> float
(** [quantile t q] with [q] in [\[0, 1\]]: the value at rank
    [q * count t], linearly interpolated inside the bucket that holds
    it (bucket 0 interpolates from 0; the open overflow bucket reports
    the last finite bound), then clamped into the range from the
    smallest to the largest sample added. This is the {e only} quantile/interpolation
    code path for bucket histograms — the metrics sink's latency histograms and the
    telemetry AoI sink's age distributions all report through it.
    [nan] on an empty histogram; raises [Invalid_argument] on a [q]
    outside [\[0, 1\]]. *)

val bucket_counts : t -> (string * int) list
(** Human-readable bucket labels ("< 20", "20 - 200", ">= 200") with
    their counts, in order. *)

val render : ?width:int -> t -> string
(** Bars scaled to the largest bucket; empty histogram renders a
    placeholder line. *)
