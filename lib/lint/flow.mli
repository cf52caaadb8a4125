(** R7 "ordered-fold": does a [Hashtbl.fold] result escape the enclosing
    function in raw hash order?

    A separate pass from the {!Engine} expression iterator because it
    needs function-level context: tail positions, let-bound value tracking,
    and one-bit summaries for local helper functions (a raw fold inside
    a helper flags at the definition when any call site lets it escape
    unsorted, and is forgiven when every escape point sorts it).

    Suppression: a [\[@dqr.lint.allow "R7"\]] on the fold expression or
    on the binding (value or helper) silences the finding; file-level
    floating attributes are handled upstream by the engine's rule
    activation. *)

val check :
  report:(loc:Location.t -> string -> unit) -> Typedtree.structure -> unit
(** Walk every module-level binding (including nested modules) and call
    [report] once per escaping raw fold, at the fold's location. The
    caller owns rule activation, suppression and diagnostic assembly. *)
