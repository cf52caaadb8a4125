(** The rule catalogue: ids, prose, and per-directory scoping.

    The checks themselves live in {!Engine}; this module is the data the
    engine, the CLI ([--list-rules]) and the docs all agree on. A rule
    [applies] to a source file based on its project-relative path — the
    scoping encodes which invariants are load-bearing where (e.g. wall
    clock reads are fine in [bin/] but poison determinism in [lib/]). *)

type t = {
  id : string;  (** "R1" .. "R10" *)
  name : string;  (** kebab-case short name, e.g. "no-poly-compare" *)
  summary : string;  (** one-line rationale *)
  applies : string -> bool;
      (** does the rule apply to this project-relative source path? *)
  scope_doc : string;  (** human-readable scope, for [--list-rules] *)
}

val all : t list
(** Every rule, in id order. *)

val find : string -> t option
(** Look up by id (["R1"]) or by name (["no-poly-compare"]). *)

val normalize : string -> string
(** Strip a leading ["./"] and normalize separators, so scoping and
    path filtering see the same spelling the compiler recorded. *)
