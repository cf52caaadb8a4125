(* The human-readable rendering sink: every typed bus event prints as
   one virtual-time-stamped line. *)
let attach ?(ppf = Format.std_formatter) engine =
  Dq_telemetry.Bus.subscribe (Engine.telemetry engine) (fun ~time_ms ev ->
      Format.fprintf ppf "[%9.1fms] [%s] %a@." time_ms (Dq_telemetry.Event.cat ev)
        Dq_telemetry.Event.pp ev)
