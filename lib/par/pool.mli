(** A fixed-size domain-based worker pool with a chunked, order-preserving
    parallel map.

    The pool exists to fan the harness's embarrassingly parallel simulation
    runs across cores: every run owns its own {!Dq_sim.Engine} (and hence
    its own RNG), so runs share no mutable state and the only requirement
    on the pool is that results come back in input order — which makes a
    parallel sweep bit-identical to the serial one.

    A pool with [jobs = n] uses [n - 1] background domains plus the calling
    domain, which participates in every map; [jobs = 1] never spawns a
    domain and degenerates to [List.map]/[Array.map] on the caller. Work is
    handed out as contiguous chunks claimed dynamically from an atomic
    counter, so heterogeneous item costs still balance. *)

type t
(** A worker pool. Not itself thread-safe: drive a given pool from one
    domain at a time (a map issued from inside a running map — e.g. from a
    worker — falls back to a serial map rather than deadlocking). *)

val default_jobs : unit -> int
(** The [DQ_JOBS] environment variable if set (must be a positive
    integer), otherwise {!Domain.recommended_domain_count}. It sizes the
    pool [dqr]'s simulation commands open; library code takes its pool
    as an argument. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains (default
    {!default_jobs}). Raises [Invalid_argument] if [jobs < 1]. *)

val jobs : t -> int

val shutdown : t -> unit
(** Join the worker domains. The pool must not be used afterwards.
    Idempotent. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] on a fresh pool and shuts it down afterwards,
    whether [f] returns or raises. *)

val chunk_ranges : n:int -> chunk_size:int -> (int * int) list
(** [chunk_ranges ~n ~chunk_size] partitions indices [0 .. n-1] into
    consecutive [(start, len)] ranges of [chunk_size] elements (the last
    range may be shorter). Every index is covered exactly once; [n = 0]
    yields []. Raises [Invalid_argument] if [n < 0] or [chunk_size < 1]. *)

val map_array : ?chunk_size:int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving parallel map: [map_array pool f a] equals
    [Array.map f a] element for element. [chunk_size] (default 1) sets
    how many consecutive items a worker claims at a time — leave it at 1
    when each item is a whole simulation run; raise it for fine-grained
    items. If any application of [f] raises, the exception raised by the
    lowest-indexed failing chunk is re-raised on the caller (with its
    backtrace) after all workers have quiesced; the pool remains usable. *)

val map : ?chunk_size:int -> t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] is [List.map f xs], parallelised as {!map_array}. *)
