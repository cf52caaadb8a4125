(** The protocol-independent replicated read/write register interface.

    Every replication protocol in this repository — dual-quorum (with
    and without volume leases), primary/backup, majority quorum, ROWA,
    and ROWA-Async — exposes a cluster as a value of type {!api}: an
    application client node submits a read or write through a chosen
    edge server (the "front end") and receives a completion callback.
    The experiment harness is written once against this interface. *)

type read_result = {
  read_key : Dq_storage.Key.t;
  read_value : string;
  read_lc : Dq_storage.Lc.t; (** logical clock of the write that produced the value *)
}

type write_result = {
  write_key : Dq_storage.Key.t;
  write_lc : Dq_storage.Lc.t; (** logical clock assigned to this write *)
}

type api = {
  protocol_name : string;
  submit_read :
    client:int ->
    server:int ->
    ?on_give_up:(unit -> unit) ->
    Dq_storage.Key.t ->
    (read_result -> unit) ->
    unit;
      (** [submit_read ~client ~server key k] issues a read from
          application-client node [client] through front-end [server];
          [k] fires when the protocol completes the read. The callback
          may never fire if the required replicas stay unreachable.
          [on_give_up] fires instead if the protocol {e explicitly}
          abandons the operation (a bounded retransmission loop
          exhausted its rounds); protocols that retry forever never
          invoke it. *)
  submit_write :
    client:int ->
    server:int ->
    ?on_give_up:(unit -> unit) ->
    Dq_storage.Key.t ->
    string ->
    (write_result -> unit) ->
    unit;
  crash_server : int -> unit;
  recover_server : int -> unit;
  server_up : int -> bool;
  message_stats : unit -> Dq_telemetry.Metrics.t;
  quiesce : unit -> unit;
      (** Ask the protocol to stop any periodic background work (e.g.
          proactive lease renewal, anti-entropy) so a simulation can
          drain; used at the end of experiments. *)
}
