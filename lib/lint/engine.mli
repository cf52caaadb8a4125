(** The analysis pass: load [.cmt] typedtrees and run the rule checks.

    The engine never re-typechecks anything — it walks the typedtree
    dune already produced (every compile runs with [-bin-annot]), so a
    lint run costs milliseconds and sees exactly the types the compiler
    saw, post-inference.

    Suppression, in order of precedence:
    - expression / let-binding attribute:
      [(e [@dqr.lint.allow "R1"])] or [let[@dqr.lint.allow "R4"] f = ...];
      the payload names one or more rule ids or names (comma/space
      separated); an empty payload allows every rule for that subtree;
    - file-level floating attribute: [[@@@dqr.lint.allow "R2"]]
      anywhere in the file suppresses that rule for the whole file. *)

type config = {
  rules : Rules.t list;  (** rules to run (default: all) *)
  ignore_scopes : bool;
      (** run every rule on every file, ignoring [Rules.applies] — used
          by the fixture tests, which live outside the scoped dirs *)
  exclude_paths : string list;
      (** project-relative path prefixes to skip entirely (default:
          the lint fixtures, which violate on purpose) *)
}

val default_config : config

val version : string
(** Engine version, advertised in reports and SARIF. *)

val lint_cmt :
  ?root:string -> config -> string -> (Diagnostic.t list, string) result
(** Lint one [.cmt] file. [root] (default ["_build/default"]) is the
    build context root used to resolve the cmt's recorded load path
    (dune spells it [/workspace_root]) so type declarations can be
    looked up. [Error] means the artifact could not be loaded. *)

val lint_build_dir :
  ?paths:string list ->
  config ->
  string ->
  Diagnostic.t list * string list * int
(** [lint_build_dir ~paths config build_dir] walks [build_dir]
    recursively for [.cmt] files in one serial pass and lints each
    compilation unit once (several executables may recompile the same
    source; the first cmt in walk order wins, so findings are not
    duplicated). It returns the sorted diagnostics, the load errors and
    the number of [.cmt] files walked. There is one load error per
    [.cmt] that could not be read, then one per [.ml] source under
    [build_dir] that the config would lint but that no [.cmt] records
    (what an incremental build leaves behind). [paths] filters findings
    and sources to files under the given project-relative prefixes. *)
