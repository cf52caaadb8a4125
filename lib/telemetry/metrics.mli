(** Counter/histogram aggregation — the metrics sink.

    One [Metrics.t] plays two roles:

    - [Dq_net.Net] owns an always-on instance fed directly through
      {!record_msg} (its [stats], whose figure tables must not depend
      on whether telemetry is enabled);
    - {!sink} adapts an instance into a bus sink that additionally
      counts every event by kind and feeds operation latencies into
      per-kind histograms — the [--metrics FILE] output. *)

type t

val create : unit -> t

val record_msg : t -> label:string -> local:bool -> bytes:int -> unit
(** Direct message accounting. Remote and local messages are tallied
    separately, per label; [bytes] counts toward remote messages only. *)

val record_latency : t -> kind:string -> float -> unit
(** Feed an operation latency (ms) into the [kind] histogram
    (["read"] or ["write"]; other kinds are ignored). *)

val total : t -> int
val remote_total : t -> int
val local_total : t -> int
val remote_bytes : t -> int

val by_label : ?include_local:bool -> t -> (string * int) list
(** Message counts per label, sorted by label. Remote-only by default
    (the overhead model's view); [~include_local:true] folds in local
    deliveries. *)

val local_by_label : t -> (string * int) list
val bytes_by_label : t -> (string * int) list

val event_counts : t -> (string * int) list
(** Per-event-kind counters accumulated via {!sink}, sorted by kind. *)

val event_count : t -> string -> int
(** Count for one event kind ({!Event.name}); 0 if never seen. *)

val read_latency : t -> Dq_util.Histogram.t
val write_latency : t -> Dq_util.Histogram.t

val reset : t -> unit

val sink : t -> Bus.sink
(** Aggregate bus events into [t]: every event bumps its kind counter;
    [Msg_sent] feeds message accounting; [Op_complete] feeds the
    latency histograms. *)

val pp : Format.formatter -> t -> unit

val to_json : ?aoi:Aoi.t -> t -> string
(** The full metrics snapshot as a JSON object (counters, per-label
    tables, event counts, latency histograms with quantiles via
    {!Dq_util.Histogram.quantile}). [?aoi] folds an {!Aoi} sink's
    freshness block in under an ["aoi"] key. *)
