(** Parsing of [\[@dqr.lint.allow\]] suppression attributes — shared
    between {!Engine} (point checks, allow stack) and {!Flow} (the R7
    escape analysis, which walks function bodies on its own). *)

val allow_attr : string
(** The attribute name, ["dqr.lint.allow"]. *)

val allows_of_attributes : Typedtree.attributes -> string list
(** The rule keys named by any [\[@dqr.lint.allow\]] in the list; an
    empty or non-string payload yields [\["*"\]] (allow everything). *)

val allow_matches : Rules.t -> string list -> bool
(** Does a key list (from {!allows_of_attributes}) suppress this rule —
    by id, by name, or by wildcard? *)

val allows_rule : Typedtree.attributes -> string -> bool
(** [allows_rule attrs "R9"]: do these attributes suppress the rule with
    that id? *)
