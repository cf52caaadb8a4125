(** Layer microbenchmarks through public functions only. Each runs for
    at least [budget_s] seconds and fails if the layer did not do the
    work it was timed for. *)

type result = { ns_per_op : float; words_per_op : float }

val engine_dispatch : seed:int64 -> budget_s:float -> result
(** 1000 mixed-delay [Engine.schedule] calls, then [Engine.run]; per event. *)

val net_send_deliver : seed:int64 -> budget_s:float -> result
(** [Net.send] to delivery on a two-node network; per message. *)

val qrpc_round : seed:int64 -> budget_s:float -> result
(** One [Qrpc.call] round on a five-node majority system, until its
    quorum of replies; per call. *)

val oqs_read_hit : seed:int64 -> budget_s:float -> result
(** [Oqs_server.handle] on an [Oqs_read_req] while [is_locally_valid]
    holds, in a warmed DQVL cluster on the paper topology. *)

val iqs_write : seed:int64 -> budget_s:float -> result
(** [Iqs_server.handle] on an [Iqs_write_req]. *)

(** {2 Telemetry sink replay} *)

type recorder

val recorder : limit:int -> recorder
(** Keeps the first [limit] events it sees. *)

val record : recorder -> Dq_telemetry.Bus.sink

val recorded : recorder -> (float * Dq_telemetry.Event.t) array

val sink_replay :
  budget_s:float ->
  (float * Dq_telemetry.Event.t) array ->
  (unit -> Dq_telemetry.Bus.sink) ->
  float
(** ns per event to feed the stream to a fresh sink from the factory. *)
