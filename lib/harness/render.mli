(** Rendering of experiment results as aligned text tables, for the CLI
    ([bin/dqr.exe]). *)

val response_rows : title:string -> Experiment.response_row list -> Dq_util.Table.t

val sweep :
  title:string ->
  x_label:string ->
  x_of:('a -> string) ->
  ('a * Experiment.response_row list) list ->
  Dq_util.Table.t
(** One row per sweep point, one column per protocol (overall mean
    response time in ms). *)

val series :
  title:string ->
  x_label:string ->
  x_of:('a -> string) ->
  ?fmt:(float -> string) ->
  ('a * (string * float) list) list ->
  Dq_util.Table.t
(** Generic (x, per-protocol value) table, e.g. unavailability or
    messages per request. *)

val scientific : float -> string
(** Format like ["1.3e-09"], the paper's log-scale figures. *)
