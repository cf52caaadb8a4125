(* R4 fixture: telemetry publishes that construct their event with no
   Bus.subscribed guard in sight — two findings. *)

let bus = Dq_telemetry.Bus.create ()

let publish_unguarded () =
  Dq_telemetry.Bus.emit bus
    (Dq_telemetry.Event.Note { src = "fixture"; msg = lazy "unguarded" })

let emit ev = Dq_telemetry.Bus.emit bus ev

let wrapper_unguarded () =
  emit (Dq_telemetry.Event.Note { src = "fixture"; msg = lazy "wrapper" })
