(** A record of every operation an experiment issued, with real-time
    invocation/response intervals — the input to the consistency
    checker. *)

open Dq_storage

type kind = Read | Write

type op = {
  id : int;
  client : int;
  key : Key.t;
  kind : kind;
  value : string;
      (** for writes, the (unique) value written; for reads, the value
          returned *)
  lc : Lc.t option;
      (** logical clock: assigned (writes) or observed (reads); [None]
          for operations that never completed *)
  invoked : float;
  responded : float option;  (** [None]: no response (timed out / node down) *)
  gave_up : float option;
      (** when the protocol {e explicitly} abandoned the operation (a
          bounded retransmission loop exhausted its rounds); [None] for
          completed operations and for operations that are merely still
          pending. Distinguishes "failed" from "no response yet". *)
}

type t

val create : unit -> t

val begin_op : t -> client:int -> key:Key.t -> kind:kind -> value:string -> now:float -> int
(** Returns the operation id. For reads, [value] is [""] until completion. *)

val complete_op : t -> id:int -> value:string -> lc:Lc.t -> now:float -> unit

val give_up_op : t -> id:int -> now:float -> unit
(** Record that the protocol explicitly abandoned the operation. A
    no-op if the operation already completed (a late give-up racing a
    response loses). *)

val ops : t -> op list
(** All operations, in id order. *)

val completed_count : t -> int

val size : t -> int
