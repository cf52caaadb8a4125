(** Wall-clock spans recorded around calls into the system's layers.

    A span carries a name, start, end and the span open around it.
    Spans stay in memory until the run ends. *)

type span = { id : int; name : string; parent : int option; start_s : float; stop_s : float }

type t

val create : unit -> t

val within : t option -> string -> (unit -> 'a) -> 'a
(** [within (Some t) name f] runs [f] inside a span; [within None]
    just runs [f]. *)

val spans : t -> span list
(** In opening order. *)

val self_time : t -> span -> float
(** The span's duration minus the time its child spans cover. *)

val self_by_name : t -> (string * float * float * int) list
(** Per span name: total seconds, self seconds, count; sorted by name. *)

val to_json : t -> string
(** Every span, times relative to the first span's start. *)
