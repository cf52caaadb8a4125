(** A counting telemetry sink: the traced run's only hook inside the
    simulation. It counts the events that show each layer's work. *)

type t = {
  mutable events : int;  (** every bus event *)
  mutable msgs_remote : int;  (** [Msg_sent] between nodes *)
  mutable msgs_local : int;  (** [Msg_sent] to the same node *)
  mutable msgs_dropped : int;
  mutable read_hits : int;  (** OQS [Cache_read] hits *)
  mutable read_misses : int;
  mutable inval_through : int;
  mutable inval_suppressed : int;
  mutable inval_delayed : int;
  mutable leases_granted : int;
  mutable leases_expired : int;
  mutable rpc_rounds : int;  (** QRPC and retry-loop attempts *)
  mutable rpc_retries : int;  (** attempts after the first *)
  mutable rpc_give_ups : int;
  mutable op_timeouts : int;
  mutable op_give_ups : int;
  mutable recoveries : int;  (** [Recovery_done] *)
  mutable recovery_bytes : int;
  mutable recovery_ms : float;  (** summed virtual duration *)
}

val create : unit -> t

val sink : t -> Dq_telemetry.Bus.sink

val add : t -> t -> t
(** Field-wise sum, as a fresh record. *)
