type sink = time_ms:float -> Event.t -> unit

type t = { mutable now : unit -> float; mutable sinks : sink list }

let create () = { now = (fun () -> 0.); sinks = [] }

let set_now t f = t.now <- f

let subscribe t sink = t.sinks <- t.sinks @ [ sink ]

let clear t = t.sinks <- []

(* A tag check, not a polymorphic compare: this is the per-message
   fast-path guard every publisher runs. *)
let subscribed t = match t.sinks with [] -> false | _ :: _ -> true

(* A top-level walk, so emitting allocates no closure per event. *)
let rec deliver ~time_ms ev = function
  | [] -> ()
  | sink :: rest ->
    sink ~time_ms ev;
    deliver ~time_ms ev rest

let emit t ev =
  match t.sinks with [] -> () | sinks -> deliver ~time_ms:(t.now ()) ev sinks

let null = create ()
