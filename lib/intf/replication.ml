type read_result = {
  read_key : Dq_storage.Key.t;
  read_value : string;
  read_lc : Dq_storage.Lc.t;
}

type write_result = { write_key : Dq_storage.Key.t; write_lc : Dq_storage.Lc.t }

type api = {
  protocol_name : string;
  submit_read :
    client:int ->
    server:int ->
    ?on_give_up:(unit -> unit) ->
    Dq_storage.Key.t ->
    (read_result -> unit) ->
    unit;
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
}
