(* R6 fixture: raw engine scheduling. Nothing checks the node's
   incarnation at expiry, so a crash/amnesia restart between arming and
   firing resurrects the callback into the node's next life. *)

let arm engine f = ignore (Dq_sim.Engine.schedule engine ~delay:10. f)

let arm_at engine f = ignore (Dq_sim.Engine.schedule_at engine ~time:99. f)

let arm_guarded engine f =
  ignore (Dq_sim.Engine.schedule_guarded engine ~delay:10. ~guard:(fun () _ -> true) () 0 f)

let deliver engine f =
  Dq_sim.Engine.schedule_delivery engine ~delay:10. (fun ~src:_ ~dst:_ () -> f ()) ~src:0 ~dst:0 ()
