(* R4 fixture, clean: every event construction sits behind a
   subscribed check, in each of the guard idioms the tree uses. *)

let bus = Dq_telemetry.Bus.create ()

(* Direct guard. *)
let direct () =
  if Dq_telemetry.Bus.subscribed bus then
    Dq_telemetry.Bus.emit bus
      (Dq_telemetry.Event.Note { src = "fixture"; msg = lazy "direct" })

(* Module-local wrappers, as in lib/dq/oqs_server.ml. *)
let subscribed () = Dq_telemetry.Bus.subscribed bus

(* Prebuilt event argument: construction happened at the (guarded)
   caller, so the helper itself is fine. *)
let emit ev = Dq_telemetry.Bus.emit bus ev

let wrapped () =
  if subscribed () then
    emit (Dq_telemetry.Event.Note { src = "fixture"; msg = lazy "wrapped" })

(* Guard bound as a boolean, as in lib/net/net.ml. *)
let bound () =
  let subscribed = Dq_telemetry.Bus.subscribed bus in
  if subscribed then
    emit (Dq_telemetry.Event.Note { src = "fixture"; msg = lazy "bound" })

(* Guard in a match case's when-clause. *)
let via_match n =
  match n with
  | 0 -> ()
  | n when subscribed () ->
    emit (Dq_telemetry.Event.Note { src = "fixture"; msg = lazy (string_of_int n) })
  | _ -> ()

(* Conjunction: the guard need only appear somewhere in the condition. *)
let conj n =
  if n > 0 && subscribed () then
    emit (Dq_telemetry.Event.Note { src = "fixture"; msg = lazy "conj" })
