(** The client operations a front end has already accepted.

    The network may duplicate a client request, and executing a client
    write twice would issue two distinct writes for one client
    operation, so a front end accepts each [(client, op)] pair once.
    Client and op ids are dense and non-negative (a client numbers its
    operations 0, 1, 2, …), so the set is one growable bitset per
    client: one bit per op id, not one hash-table entry. *)

type t

val create : unit -> t
(** An empty set. A recovering front end starts again from [create]. *)

val add_fresh : t -> client:int -> op:int -> bool
(** [add_fresh t ~client ~op] adds the pair and is [true] if it was
    not yet in [t], in whatever order the ids arrive. Raises
    [Invalid_argument] on a negative id. *)
