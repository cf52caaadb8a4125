(** The benchmark definition: [BENCHMARK.json] at the repository root
    is exactly {!json}[ ()]. *)

val command : string list

val paths : string list

val run_seconds : int

val json : unit -> string
