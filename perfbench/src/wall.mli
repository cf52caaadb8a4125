(** Host wall clock and allocation counters. *)

val now : unit -> float
(** Host wall-clock seconds. *)

val time : (unit -> 'a) -> 'a * float * float
(** [time f] is [(f (), seconds, minor words)]. *)
