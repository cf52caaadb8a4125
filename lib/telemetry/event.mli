(** The typed telemetry event vocabulary.

    One variant per observable fact in the system, spanning every layer:
    network messages, client operations, leases and invalidations (the
    dual-quorum protocol core), QRPC retry rounds, injected faults, and
    simulator-level happenings. Events carry plain scalars only, except
    a [Note]'s text, which is a suspension rendered on demand —
    constructing one allocates a small record and nothing else, and
    callers must only construct events behind a {!Bus.subscribed}
    check so the no-sink path stays allocation-free. *)

type t =
  | Msg_sent of { src : int; dst : int; label : string; bytes : int; local : bool }
  | Msg_delivered of { src : int; dst : int; label : string }
  | Msg_dropped of { src : int; dst : int; label : string; reason : string }
      (** [reason] is one of ["loss"], ["unreachable"], ["node-down"]. *)
  | Op_start of { op : int; client : int; kind : string; key : string }
  | Op_complete of {
      op : int;
      client : int;
      kind : string;
      start_ms : float;
      latency_ms : float;
    }
  | Op_served of {
      op : int;
      client : int;
      kind : string;
      key : string;
      lc_count : int;
      lc_node : int;
      start_ms : float;
    }
      (** Completion of an operation with the {e version} it settled on:
          the logical clock assigned (writes) or observed (reads), as
          plain [(count, node)] scalars ordered lexicographically —
          exactly [Dq_storage.Lc.compare] without the dependency. This
          is what the {!Aoi} freshness sink consumes; [Op_complete]
          stays the latency-only event. *)
  | Op_timeout of { op : int; client : int; kind : string }
  | Op_give_up of { op : int; client : int; kind : string }
  | Lease_granted of { node : int; peer : int; volume : int; lease_ms : float; epoch : int }
  | Lease_expired of { node : int; peer : int; volume : int }
  | Inval_through of { node : int; peer : int; key : string }
      (** IQS node [node] handled a copy of front end [peer]'s
          [Iqs_write_req] while no OQS write quorum was yet invalid for
          the write, so it must invalidate before acknowledging. Emitted
          once per request copy handled, retransmissions and duplicates
          included: counts are of copies, not of client writes (a
          contended run can see several per write). *)
  | Inval_suppressed of { node : int; key : string }
      (** Like [Inval_through], but an OQS write quorum was already
          invalid for the write, so the write is acknowledged without
          an invalidation round. Also emitted once per request copy. *)
  | Inval_delayed of { node : int; peer : int; key : string }
  | Epoch_advance of { node : int; peer : int; volume : int; epoch : int }
  | Cache_read of { node : int; key : string; hit : bool }
  | Rpc_round of { node : int; tag : string; round : int }
  | Rpc_give_up of { node : int; tag : string; rounds : int }
  | Link_cut of { src : int; dst : int }
  | Link_uncut of { src : int; dst : int }
  | Node_crash of { node : int }
  | Node_wipe of { node : int }
      (** The crash was an amnesia crash: the node's durable state is
          gone and recovery will need state transfer. *)
  | Node_recover of { node : int }
  | Recovery_start of { node : int }
      (** A wiped replica began catch-up (entered [Syncing]). *)
  | Recovery_done of { node : int; bytes : int; objects : int; duration_ms : float }
      (** Catch-up finished: [bytes]/[objects] transferred from peers,
          [duration_ms] of virtual time between start and done. *)
  | Fault_injected of { label : string }
  | Clock_skew of { node : int; skew : float }
  | Span_begin of { name : string; node : int }
  | Span_end of { name : string; node : int }
  | Note of { src : string; msg : string Lazy.t }
      (** Free-form protocol commentary. [msg] is rendered only when a
          printing sink ({!pp}, [Trace]) forces it, so a bus whose sinks
          only count or aggregate never formats the text. A bus belongs
          to one run on one domain, so forcing never races. *)
val kinds : int
(** The number of event kinds. *)

val kind : t -> int
(** Dense kind index in [\[0, kinds)], one per constructor except
    [Cache_read], whose hit and miss are two kinds. Sinks that count by
    kind index an array with it instead of hashing {!name}. *)

val kind_name : int -> string
(** The kind's stable snake_case slug. *)

val name : t -> string
(** [kind_name (kind ev)]: the slug, used as the metrics counter key. *)

val cat : t -> string
(** Coarse category (["msg"], ["op"], ["lease"], ["inval"], ["cache"],
    ["rpc"], ["fault"], ["sim"], ["span"], ["note"]) — the Chrome-trace
    [cat] field, filterable in Perfetto. *)

val track : t -> int
(** The node/client id whose timeline the event belongs to (the
    Chrome-trace [tid]); [-1] for cluster-wide events. *)

val pp : Format.formatter -> t -> unit
(** Human-readable one-line rendering (the log sink format). *)
