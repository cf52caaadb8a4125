(** Online age-of-information (AoI) and staleness tracking over the
    telemetry bus (after Zhong et al., {e Minimizing Content Staleness
    in Dynamo-Style Replicated Storage Systems}).

    The sink consumes {!Event.Op_served} events only. Per key it
    maintains two views of freshness:

    - the {b AoI process} of the key's content: the age of the freshest
      completed version grows linearly with virtual time and resets to
      0 whenever a write carrying a fresher logical clock completes —
      the classic saw-tooth, integrated online into a time-averaged and
      a peak age; and
    - the {b reader's view}: each completed read records the
      instantaneous age of the value it actually returned (time since
      that version's write completed) and how many completed writes it
      lagged behind.

    The staleness counters are defined {e exactly} as the offline
    oracle {!Dq_harness.Staleness.measure} defines them — a read is
    stale iff some write superseding the returned version completed
    before the read was invoked — and the test suite holds the two
    equal on fuzzed histories.

    Like every sink, attaching one must not perturb the simulation: the
    sink only observes, and the driver constructs [Op_served] behind
    the usual {!Bus.subscribed} guard. *)

type t

val create : unit -> t

val sink : t -> Bus.sink
(** Feed one event. Only [Op_served] advances state; everything else
    just refreshes the "latest virtual time seen" watermark that closes
    the AoI integral. *)

type summary = {
  keys_tracked : int;
  reads_checked : int;           (** completed reads examined *)
  stale_reads : int;
  stale_fraction : float;        (** [0.] when no reads completed *)
  mean_behind_ms : float;        (** over stale reads only; 0 when none *)
  max_behind_ms : float;
  max_versions_behind : int;
  mean_read_age_ms : float;      (** over all checked reads *)
  max_read_age_ms : float;
  time_avg_age_ms : float;       (** AoI integral / observed span, across keys *)
  peak_age_ms : float;           (** tallest saw-tooth over all keys *)
}

val summary : ?now:float -> t -> summary
(** Pure snapshot; [now] (default: the last event stamp seen) closes
    each key's trailing saw-tooth segment. *)

val read_age_histogram : t -> Dq_util.Histogram.t
(** Instantaneous returned-value age per completed read (ms). *)

val behind_histogram : t -> Dq_util.Histogram.t
(** Time-behind per stale read (ms). *)

val to_json : ?now:float -> t -> string
(** A self-contained JSON object (summary scalars + the three
    distributions, quantiles via {!Dq_util.Histogram.quantile}) — the
    ["aoi"] block of {!Metrics.to_json} and of the bench schema 4
    results. *)
