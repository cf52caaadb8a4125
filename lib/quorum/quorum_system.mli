(** Quorum systems: which sets of replicas may serve a read or a write.

    A quorum system is defined over a list of member node ids. The
    fundamental operations are the two predicates — does a set of
    responders contain a read (write) quorum? — plus the {e explicit}
    view of the system: the enumerated antichain of minimal quorums
    ({!read_quorums}, {!write_quorums}), which {!Strategy} turns into
    probability distributions and {!Optimizer} searches over.

    Constructions provided (all from the paper and its references):
    threshold (Gifford-style voting with read/write thresholds),
    majority, ROWA (read-one/write-all), weighted voting, and the grid
    protocol of Cheung, Ahamad and Ammar. The dual-quorum protocol
    composes two of these: an input quorum system (IQS, typically
    majority) and an output quorum system (OQS, typically
    read-one/write-all over the edge servers).

    All quorum predicates are monotone: adding responders never
    destroys a quorum. The enumeration and strategy machinery rely on
    this. *)

type t

type mode = Read | Write

val name : t -> string

val members : t -> int list
(** In construction order. The list is built once, so reading it
    allocates nothing. *)

val size : t -> int

val mem : t -> int -> bool

val is_read_quorum : t -> present:(int -> bool) -> bool
(** Does the set characterized by [present] contain a read quorum? *)

val is_write_quorum : t -> present:(int -> bool) -> bool

val is_read_quorum_list : t -> int list -> bool

val is_write_quorum_list : t -> int list -> bool

val is_quorum_list : t -> mode -> int list -> bool

val min_read_size : t -> int
(** Cardinality of the smallest read quorum. *)

val min_write_size : t -> int

(** {2 Enumeration}

    The explicit representation: the antichain of {e minimal} quorums
    (no proper subset of a listed set is itself a quorum). Every quorum
    of the system is a superset of a listed one, so intersection
    properties of the full system follow from the minimal sets. *)

val enumeration_bound : int
(** Largest member count the exhaustive enumeration accepts (16). *)

val read_quorums : t -> int list list
(** All minimal read quorums, each sorted in member order, in a
    deterministic order. Raises [Invalid_argument] when
    [size t > enumeration_bound]. *)

val write_quorums : t -> int list list

val quorums : t -> mode -> int list list

val check_intersection :
  ?rw_overlap:int ->
  ?ww_overlap:int ->
  read_quorums:int list list ->
  write_quorums:int list list ->
  unit ->
  (unit, string) result
(** The generalized intersection predicate every construction must
    instantiate: each read quorum overlaps each write quorum in at
    least [rw_overlap] members (default 1) and write quorums pairwise
    overlap in at least [ww_overlap] (default 1). Regular/atomic
    register protocols need overlap 1; masking (Byzantine) quorum
    systems will instantiate it with [2f+1], erasure-coded ones with
    their reconstruction threshold. *)

(** {2 Randomized selection}

    These are the {e legacy} samplers, kept as the default
    {!Strategy}'s sampling path (bit-identical RNG streams). Their
    distributions are construction-specific and {b not} uniform over
    minimal quorums in general:

    - threshold: uniform over all minimal (size-[read]/[write]) quorums;
    - grid read: one uniform row pick per column — uniform over minimal
      read quorums;
    - grid write: a uniform full column plus one uniform row pick per
      remaining column (the sampled set may contain a second full
      column, so outcomes are not exactly uniform over distinct sets);
    - weighted: a uniform random permutation is accumulated until the
      vote target is reached, which over-selects high-vote members
      relative to the uniform distribution over minimal quorums and can
      return non-minimal sets.

    For an unbiased choice use [Strategy.uniform], which samples
    uniformly over the enumerated minimal quorums. *)

val choose_read : t -> Dq_util.Rng.t -> int list
(** A random read quorum, drawn per the construction-specific
    distribution documented above. *)

val choose_write : t -> Dq_util.Rng.t -> int list

val choose : t -> mode -> Dq_util.Rng.t -> int list

(** {2 Constructions} *)

val threshold : name:string -> members:int list -> read:int -> write:int -> t
(** Any [read] members form a read quorum, any [write] members a write
    quorum. Requires [1 <= read, write <= n], [read + write > n] (every
    read quorum intersects every write quorum) and [2 * write > n]
    (write quorums intersect each other, needed to order writes). *)

val majority : int list -> t
(** Threshold with read = write = floor(n/2) + 1. *)

val rowa : int list -> t
(** Read-one / write-all: threshold with read = 1, write = n. *)

val weighted : name:string -> members:(int * int) list -> read:int -> write:int -> t
(** Gifford-style weighted voting (the paper's reference [12]):
    [members] pairs node ids with vote counts; a read (write) quorum is
    any set holding at least [read] ([write]) votes. Requires
    [read + write > total votes] and [2 * write > total votes]. *)

val grid : rows:int -> cols:int -> int list -> t
(** The grid protocol: members arranged row-major in a [rows] x [cols]
    grid. A read quorum is one node from each column; a write quorum is
    a full column plus one node from each other column. Requires
    [rows * cols = List.length members]. *)

val counting_thresholds : t -> (int * int) option
(** [Some (read, write)] iff the system is counting-based: any [read]
    members form a read quorum and any [write] members a write quorum.
    Grid and weighted systems return [None]. Lets {!Availability} use
    closed forms. *)

val validate : t -> (unit, string) result
(** Exhaustively check (for [size t <= enumeration_bound]) the
    intersection properties via {!check_intersection} over the
    enumerated minimal quorums; larger systems rely on their
    construction invariants. Used in tests. *)

val pp : Format.formatter -> t -> unit
