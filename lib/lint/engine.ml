open Typedtree
module D = Diagnostic

type config = {
  rules : Rules.t list;
  ignore_scopes : bool;
  exclude_paths : string list;
}

let default_config =
  {
    rules = Rules.all;
    ignore_scopes = false;
    exclude_paths = [ "test/lint_fixtures" ];
  }

(* ------------------------------------------------------------------ *)
(* Small string helpers                                                *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let ends_with ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.equal (String.sub s (ls - lx) lx) suffix

let contains_substring ~sub s =
  let ls = String.length s and lx = String.length sub in
  if lx = 0 then true
  else begin
    let found = ref false in
    let i = ref 0 in
    while (not !found) && !i <= ls - lx do
      if String.equal (String.sub s !i lx) sub then found := true;
      incr i
    done;
    !found
  end

(* ------------------------------------------------------------------ *)
(* Suppression attributes (parsing shared with Flow via Suppress)      *)

let allows_of_attributes = Suppress.allows_of_attributes

let allow_matches = Suppress.allow_matches

(* ------------------------------------------------------------------ *)
(* Type inspection (best effort: the env rebuilt from the summary may
   be incomplete, in which case we stay structural and conservative)   *)

let rebuild_env env = try Envaux.env_of_only_summary env with _ -> Env.empty

let expand env ty = try Ctype.expand_head env ty with _ -> ty

(* [int]/[bool]/[char]/[unit] and all-constant-constructor variants are
   immediate: polymorphic comparison on them is branch-free and cannot
   observe representation, so R1 lets them through. Everything else —
   floats, strings, tuples, records, open variants, type variables —
   must use a monomorphic comparator. *)
let is_immediate_type env ty =
  let ty = expand env ty in
  match Types.get_desc ty with
  | Tconstr (p, [], _)
    when Path.same p Predef.path_int
         || Path.same p Predef.path_bool
         || Path.same p Predef.path_char
         || Path.same p Predef.path_unit -> true
  | Tconstr (p, _, _) -> (
    match Env.find_type p env with
    | { type_kind = Type_variant (cstrs, _); _ } ->
      List.for_all
        (fun (c : Types.constructor_declaration) ->
          match c.cd_args with Cstr_tuple [] -> true | _ -> false)
        cstrs
    | _ -> false
    | exception _ -> false)
  | _ -> false

(* The compiler itself specializes the comparison primitives (=, <>, <,
   >, <=, >=, compare) when the static argument type is an immediate,
   float, string or boxed integer (Translcore.specialize_comparison):
   those occurrences are already monomorphic machine code and R1 lets
   them through. Everything else really does call the generic
   structural walk. *)
let is_specializable_type env ty =
  is_immediate_type env ty
  ||
  let ty = expand env ty in
  match Types.get_desc ty with
  | Tconstr (p, [], _) ->
    Path.same p Predef.path_float
    || Path.same p Predef.path_string
    || Path.same p Predef.path_int32
    || Path.same p Predef.path_int64
    || Path.same p Predef.path_nativeint
  | _ -> false

let first_arrow_arg ty =
  match Types.get_desc ty with
  | Tarrow (_, t, _, _) -> Some t
  | Tpoly (t, _) -> (
    match Types.get_desc t with Tarrow (_, t, _, _) -> Some t | _ -> None)
  | _ -> None

let type_to_string env ty =
  try
    Printtyp.reset ();
    Format.asprintf "%a" Printtyp.type_expr (expand env ty)
  with _ -> "_"

(* ------------------------------------------------------------------ *)
(* Rule tables                                                         *)

(* Comparison primitives the compiler specializes at known base types
   (see [is_specializable_type]). *)
let comparison_primitives =
  [
    "Stdlib.compare"; "Stdlib.="; "Stdlib.<>"; "Stdlib.<"; "Stdlib.>";
    "Stdlib.<="; "Stdlib.>=";
  ]

(* Plain functions built on the generic compare: these call the
   structural walk at runtime whatever the static type, so only true
   immediates are exempt. *)
let generic_compare_fns =
  [
    "Stdlib.min"; "Stdlib.max"; "Stdlib.Hashtbl.hash";
    "Stdlib.Hashtbl.hash_param"; "Stdlib.List.mem"; "Stdlib.List.assoc";
    "Stdlib.List.assoc_opt"; "Stdlib.List.mem_assoc";
    "Stdlib.List.remove_assoc"; "Stdlib.Array.mem";
  ]

let wall_clock_names = [ "Unix.gettimeofday"; "Unix.time"; "Stdlib.Sys.time" ]

(* R8: partial stdlib functions whose failure the types allow. Array.get
   is deliberately absent — [a.(i)] desugars to the same ident, so the
   rule would ban every array read; bounds discipline on arrays stays a
   review concern. *)
let partial_fn_names =
  [ "Stdlib.Option.get"; "Stdlib.List.hd"; "Stdlib.List.nth" ]

let ref_write_names = [ "Stdlib.:="; "Stdlib.incr"; "Stdlib.decr" ]

let hashtbl_mutators =
  [
    "Stdlib.Hashtbl.add"; "Stdlib.Hashtbl.replace"; "Stdlib.Hashtbl.remove";
    "Stdlib.Hashtbl.reset"; "Stdlib.Hashtbl.clear";
    "Stdlib.Hashtbl.filter_map_inplace";
  ]

let array_writes =
  [
    "Stdlib.Array.set"; "Stdlib.Array.unsafe_set"; "Stdlib.Array.fill";
    "Stdlib.Bytes.set"; "Stdlib.Bytes.unsafe_set"; "Stdlib.Bytes.fill";
  ]

let mem names n = List.exists (String.equal n) names

(* ------------------------------------------------------------------ *)
(* R4 helpers: guard detection                                         *)

(* A condition counts as a telemetry guard if it mentions a value named
   [subscribed] — [Bus.subscribed], a module-local wrapper
   [let subscribed t = Bus.subscribed t.bus], or a bound boolean
   [let subscribed = Bus.subscribed bus in ...] all qualify. *)
let mentions_subscribed e =
  let found = ref false in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.exp_desc with
          | Texp_ident (p, _, _) when String.equal (Path.last p) "subscribed" ->
            found := true
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it e;
  !found

(* An argument that is a bare variable, field read or constant was built
   before the call; anything else is constructed at the call site and
   belongs behind the guard. *)
let is_prebuilt e =
  match e.exp_desc with
  | Texp_ident _ | Texp_field _ | Texp_constant _ -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* R5 helpers: captured-state mutation inside pool worker closures      *)

type head = Local of Ident.t | Global | Unknown

let rec head_of e =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> Local id
  | Texp_ident (_, _, _) -> Global
  | Texp_field (e, _, _) -> head_of e
  | _ -> Unknown

let first_nolabel_arg args =
  List.find_map
    (fun (lbl, a) ->
      match (lbl, a) with
      | Asttypes.Nolabel, Some e -> Some e
      | _ -> None)
    args

(* Collect every identifier bound anywhere inside [e] (parameters, lets,
   match patterns, for-loop indices): mutations whose target is bound
   inside the closure are worker-private and safe. *)
let bound_idents_within e =
  let ids = Hashtbl.create 32 in
  let add id = Hashtbl.replace ids (Ident.unique_name id) () in
  let it =
    {
      Tast_iterator.default_iterator with
      pat =
        (fun sub p ->
          List.iter add (pat_bound_idents p);
          Tast_iterator.default_iterator.pat sub p);
      expr =
        (fun sub e ->
          (match e.exp_desc with
          | Texp_for (id, _, _, _, _, _) -> add id
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it e;
  ids

let is_captured locals = function
  | Local id -> not (Hashtbl.mem locals (Ident.unique_name id))
  | Global -> true
  | Unknown -> false

(* ------------------------------------------------------------------ *)
(* The per-file pass                                                   *)

type ctx = {
  diags : D.t list ref;
  (* rules active for this file, after scoping + file-level attrs *)
  active : (string * Rules.t) list;
  allow_stack : string list list ref;
  guard_depth : int ref;
}

let rule ctx id =
  List.find_map
    (fun (rid, r) -> if String.equal rid id then Some r else None)
    ctx.active

let suppressed ctx (r : Rules.t) = List.exists (allow_matches r) !(ctx.allow_stack)

let report ctx id ~loc fmt =
  Printf.ksprintf
    (fun message ->
      match rule ctx id with
      | None -> ()
      | Some r ->
        if not (suppressed ctx r) then
          ctx.diags := D.make ~rule:id ~loc ~message :: !(ctx.diags))
    fmt

(* R5: one closure handed to Pool.map/map_array (runs on a pool worker
   domain). *)
let race = "data race across pool domains"

let check_worker_closure ctx closure =
  let locals = bound_idents_within closure in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.exp_desc with
          | Texp_setfield (tgt, _, lbl, _)
            when is_captured locals (head_of tgt) ->
            report ctx "R5" ~loc:e.exp_loc
              "worker closure mutates field '%s' of captured state (%s)"
              lbl.lbl_name race
          | Texp_setinstvar (_, _, _, _) ->
            report ctx "R5" ~loc:e.exp_loc
              "worker closure mutates an instance variable (%s)" race
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
            let n = Path.name p in
            match first_nolabel_arg args with
            | Some tgt when is_captured locals (head_of tgt) ->
              if mem ref_write_names n then
                report ctx "R5" ~loc:e.exp_loc
                  "worker closure writes a captured ref via %s (%s)"
                  (Path.last p) race
              else if mem hashtbl_mutators n then
                report ctx "R5" ~loc:e.exp_loc
                  "worker closure mutates a captured hash table via \
                   Hashtbl.%s (%s)"
                  (Path.last p) race
              else if mem array_writes n then
                report ctx "R5" ~loc:e.exp_loc
                  "worker closure writes a captured array/bytes via %s (%s)" n
                  race
            | _ -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it closure

let is_pool_map_callee p =
  let n = Path.name p in
  ends_with ~suffix:"Pool.map" n || ends_with ~suffix:"Pool.map_array" n

(* [Engine.schedule], [Engine.schedule_at], [Engine.schedule_guarded],
   [Engine.schedule_delivery], and any later [Engine.schedule*]. *)
let is_engine_schedule n =
  match String.rindex_opt n '.' with
  | None -> false
  | Some i ->
    ends_with ~suffix:"Engine" (String.sub n 0 i)
    && starts_with ~prefix:"schedule" (String.sub n (i + 1) (String.length n - i - 1))

(* Point checks that only need to look at one identifier occurrence. *)
let check_ident ctx e p =
  let n = Path.name p in
  (* R2: ambient randomness *)
  if starts_with ~prefix:"Stdlib.Random." n then
    report ctx "R2" ~loc:e.exp_loc
      "%s draws from the ambient global generator; route randomness through \
       Dq_util.Rng so runs replay bit-for-bit"
      n;
  (* R3: wall clock *)
  if mem wall_clock_names n then
    report ctx "R3" ~loc:e.exp_loc
      "%s reads the host clock; simulation code must take time from the \
       virtual Clock"
      n;
  (* R6: raw engine timer in node-scoped code. Net.timer wraps the same
     schedule in an incarnation check (lib/net/net.ml), so callbacks
     armed before a crash/amnesia restart are dropped on recovery. Every
     Engine.schedule* entry point counts, the guarded and delivery
     variants included: a guard or a handler chosen by node code is not
     the node's incarnation check. *)
  if is_engine_schedule n then
    report ctx "R6" ~loc:e.exp_loc
      "%s arms a raw engine timer with no incarnation guard; node-scoped \
       callbacks must go through Net.timer so crash/amnesia recovery drops \
       them instead of letting them fire into the node's next life"
      n;
  (* R8: partial functions *)
  if mem partial_fn_names n then
    report ctx "R8" ~loc:e.exp_loc
      "%s raises on inputs its type allows; use a total pattern instead \
       (match, List.nth_opt, Option.value, Rng.choose)"
      n;
  (* R1: polymorphic compare/equality/hash at a non-immediate type *)
  let primitive = mem comparison_primitives n in
  if primitive || mem generic_compare_fns n then begin
    match first_arrow_arg e.exp_type with
    | None -> ()
    | Some subject ->
      let env = rebuild_env e.exp_env in
      let exempt =
        if primitive then is_specializable_type env subject
        else is_immediate_type env subject
      in
      if not exempt then
        report ctx "R1" ~loc:e.exp_loc
          "%s is polymorphic at type %s; use a monomorphic comparator \
           (Int/Float/String.equal, a dedicated compare, or match)"
          n
          (type_to_string env subject)
  end

(* ------------------------------------------------------------------ *)
(* R9 helpers: silent message drops                                    *)

(* Is this a message/payload variant? Heuristic on the (expanded) type
   constructor's path: the protocol layers name their wire types
   [Message.t] / [Base_msg.t] / [type msg = ...], and that convention is
   exactly what the rule protects — adding a constructor to a wire type
   must not be silently swallowed by an old wildcard arm. *)
let msgish_type env ty =
  let ty = expand env ty in
  match Types.get_desc ty with
  | Tconstr (p, _, _) ->
    let n = String.lowercase_ascii (Path.name p) in
    contains_substring ~sub:"msg" n || contains_substring ~sub:"message" n
  | _ -> false

let is_wildcard_pat (p : computation general_pattern) =
  match p.pat_desc with
  | Tpat_value v -> (
    match (v :> value general_pattern).pat_desc with
    | Tpat_any | Tpat_var _ -> true
    | _ -> false)
  | _ -> false

let is_unit_const e =
  match e.exp_desc with
  | Texp_construct (_, cd, []) -> String.equal cd.cstr_name "()"
  | _ -> false

let check_match_drops ctx scrut cases =
  let candidates =
    List.filter
      (fun c ->
        is_wildcard_pat c.c_lhs
        && Option.is_none c.c_guard
        && is_unit_const c.c_rhs
        (* the annotation sits on the arm's [()] body, which the allow
           stack hasn't reached yet at match-visit time *)
        && not (Suppress.allows_rule c.c_rhs.exp_attributes "R9"))
      cases
  in
  match candidates with
  | [] -> ()
  | _ :: _ ->
    let env = rebuild_env scrut.exp_env in
    if msgish_type env scrut.exp_type then
      List.iter
        (fun c ->
          report ctx "R9" ~loc:c.c_lhs.pat_loc
            "wildcard arm silently drops messages of type %s; name the \
             constructors, emit a telemetry drop event, or annotate the \
             deliberate drop with [@dqr.lint.allow \"R9\"]"
            (type_to_string env scrut.exp_type))
        candidates

(* ------------------------------------------------------------------ *)
(* R10: process-global mutable state                                   *)

let global_state_makers =
  [ "Stdlib.ref"; "Stdlib.Hashtbl.create"; "Stdlib.Atomic.make" ]

(* One structure-level binding: a mutable cell made at module
   initialisation is shared by every run in the process. *)
let check_global_state ctx vb =
  match vb.vb_expr.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _)
    when mem global_state_makers (Path.name p) ->
    report ctx "R10" ~loc:vb.vb_pat.pat_loc
      "top-level value made by %s is process-global mutable state; pass it \
       explicitly (an argument, or a field of the value that owns it) so a \
       run is a pure function of its arguments"
      (Path.name p)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* R7 point check: ordered accumulation through Hashtbl.iter            *)

let contains_cons e =
  let found = ref false in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.exp_desc with
          | Texp_construct (_, cd, _) when String.equal cd.cstr_name "::" ->
            found := true
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it e;
  !found

(* [Hashtbl.iter (fun k _ -> acc := k :: !acc) tbl] is the fold escape
   in imperative clothing: the captured ref accumulates in hash order.
   The Flow pass can't see it (the "result" leaves through a ref, not a
   tail position), so it's a point check here. *)
let check_iter_accumulator ctx args =
  match
    List.find_map
      (fun (lbl, a) ->
        match (lbl, a) with
        | Asttypes.Nolabel, Some f -> (
          match f.exp_desc with Texp_function _ -> Some f | _ -> None)
        | _ -> None)
      args
  with
  | None -> ()
  | Some closure ->
    let locals = bound_idents_within closure in
    let it =
      {
        Tast_iterator.default_iterator with
        expr =
          (fun sub e ->
            (match e.exp_desc with
            | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, aargs)
              when String.equal (Path.name p) "Stdlib.:=" -> (
              match first_nolabel_arg aargs with
              | Some tgt
                when is_captured locals (head_of tgt) && contains_cons e ->
                report ctx "R7" ~loc:e.exp_loc
                  "Hashtbl.iter conses into a captured ref in hash order; \
                   use Hashtbl.fold and sort the result before it escapes"
              | _ -> ())
            | _ -> ());
            Tast_iterator.default_iterator.expr sub e);
      }
    in
    it.expr it closure

let check_expr_node ctx e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> check_ident ctx e p
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
    (* R4: unguarded telemetry publish constructing its event *)
    if
      String.equal (Path.last p) "emit"
      && !(ctx.guard_depth) = 0
      && List.exists
           (fun (_, a) ->
             match a with Some e -> not (is_prebuilt e) | None -> false)
           args
    then
      report ctx "R4" ~loc:e.exp_loc
        "telemetry publish constructs its event outside a Bus.subscribed \
         guard; wrap it in 'if Bus.subscribed bus then ...' so the no-sink \
         path allocates nothing";
    (* R5: closure handed to the domain pool *)
    if is_pool_map_callee p then begin
      match
        List.find_map
          (fun (lbl, a) ->
            match (lbl, a) with
            | Asttypes.Nolabel, Some f -> (
              match f.exp_desc with Texp_function _ -> Some f | _ -> None)
            | _ -> None)
          args
      with
      | Some closure ->
        check_worker_closure ctx closure
      | None -> ()
    end;
    (* R7 point check: ordered accumulation through Hashtbl.iter *)
    if ends_with ~suffix:"Hashtbl.iter" (Path.name p) then
      check_iter_accumulator ctx args
  | _ -> ()

let make_iterator ctx =
  let open Tast_iterator in
  let with_allows attrs k =
    match allows_of_attributes attrs with
    | [] -> k ()
    | allows ->
      ctx.allow_stack := allows :: !(ctx.allow_stack);
      k ();
      ctx.allow_stack := List.tl !(ctx.allow_stack)
  in
  let expr sub e =
    with_allows e.exp_attributes (fun () ->
        check_expr_node ctx e;
        match e.exp_desc with
        | Texp_ifthenelse (cond, ethen, eelse) ->
          sub.expr sub cond;
          let guarded = mentions_subscribed cond in
          if guarded then incr ctx.guard_depth;
          sub.expr sub ethen;
          if guarded then decr ctx.guard_depth;
          Option.iter (sub.expr sub) eelse
        | Texp_match (scrut, cases, _) ->
          check_match_drops ctx scrut cases;
          sub.expr sub scrut;
          List.iter
            (fun c ->
              sub.pat sub c.c_lhs;
              match c.c_guard with
              | Some g ->
                sub.expr sub g;
                let guarded = mentions_subscribed g in
                if guarded then incr ctx.guard_depth;
                sub.expr sub c.c_rhs;
                if guarded then decr ctx.guard_depth
              | None -> sub.expr sub c.c_rhs)
            cases
        | _ -> default_iterator.expr sub e)
  in
  let value_binding sub vb =
    with_allows vb.vb_attributes (fun () ->
        default_iterator.value_binding sub vb)
  in
  let structure_item sub item =
    (match item.str_desc with
    | Tstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          with_allows vb.vb_attributes (fun () -> check_global_state ctx vb))
        vbs
    | _ -> ());
    default_iterator.structure_item sub item
  in
  { default_iterator with expr; value_binding; structure_item }

let file_level_allows str =
  List.concat_map
    (fun item ->
      match item.str_desc with
      | Tstr_attribute a -> allows_of_attributes [ a ]
      | _ -> [])
    str.str_items

let run_file cfg src str =
  let file_allows = file_level_allows str in
  let active =
    List.filter_map
      (fun (r : Rules.t) ->
        if
          (cfg.ignore_scopes || r.applies src)
          && not (allow_matches r file_allows)
        then Some (r.id, r)
        else None)
      cfg.rules
  in
  match active with
  | [] -> []
  | _ :: _ ->
    let ctx =
      { diags = ref []; active; allow_stack = ref []; guard_depth = ref 0 }
    in
    let it = make_iterator ctx in
    it.structure it str;
    (* R7 escape analysis: a separate function-level pass (see Flow).
       Rule activation, suppression and dedup all flow through [report]. *)
    Flow.check
      ~report:(fun ~loc msg -> report ctx "R7" ~loc "%s" msg)
      str;
    List.sort_uniq D.compare !(ctx.diags)

(* ------------------------------------------------------------------ *)
(* Cmt loading                                                         *)

(* Dune compiles with the build root spelled [/workspace_root] (path
   remapping, for reproducible artifacts), so the load path recorded in
   the cmt never exists on disk as written: remap it onto the real
   build context root so the environment rebuild can find the cmis. *)
let workspace_root = "/workspace_root"

let setup_load_path ~root (cmt : Cmt_format.cmt_infos) =
  let base =
    if Sys.file_exists cmt.cmt_builddir then cmt.cmt_builddir else root
  in
  let resolve d =
    if Filename.is_relative d then Filename.concat base d
    else if String.equal d workspace_root then root
    else if starts_with ~prefix:(workspace_root ^ "/") d then
      Filename.concat root
        (String.sub d
           (String.length workspace_root + 1)
           (String.length d - String.length workspace_root - 1))
    else d
  in
  Load_path.init ~auto_include:Load_path.no_auto_include
    (List.map resolve cmt.cmt_loadpath);
  Env.reset_cache ();
  Envaux.reset_cache ()

let source_of_cmt (cmt : Cmt_format.cmt_infos) =
  match cmt.cmt_sourcefile with
  | Some f when Filename.check_suffix f ".ml" -> Some (Rules.normalize f)
  | _ -> None

let excluded cfg src = List.exists (fun p -> starts_with ~prefix:p src) cfg.exclude_paths

let read_cmt cmt_path =
  match Cmt_format.read_cmt cmt_path with
  | exception e -> Error (Printf.sprintf "%s: %s" cmt_path (Printexc.to_string e))
  | cmt -> Ok cmt

(* The source and typedtree of a cmt the config lints, if any. *)
let lintable cfg (cmt : Cmt_format.cmt_infos) =
  match (source_of_cmt cmt, cmt.cmt_annots) with
  | Some src, Implementation str when not (excluded cfg src) -> Some (src, str)
  | _ -> None

let lint_cmt ?(root = "_build/default") cfg cmt_path =
  Result.map
    (fun cmt ->
      match lintable cfg cmt with
      | Some (src, str) ->
        setup_load_path ~root cmt;
        run_file cfg src str
      | None -> [])
    (read_cmt cmt_path)

(* ------------------------------------------------------------------ *)
(* Build-dir walking                                                   *)

(* The [.cmt] artifacts and the [.ml] sources under [dir], each in
   reverse walk order; a source is returned relative to the build dir,
   as a cmt records it. *)
let rec walk_dir dir ~rel ((cmts, mls) as acc) =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
    Array.sort String.compare entries;
    Array.fold_left
      (fun ((cmts, mls) as acc) name ->
        let path = Filename.concat dir name in
        let rel = if String.equal rel "" then name else rel ^ "/" ^ name in
        if Sys.is_directory path then walk_dir path ~rel acc
        else if Filename.check_suffix name ".cmt" then (path :: cmts, mls)
        else if Filename.check_suffix name ".ml" then (cmts, rel :: mls)
        else acc)
      (cmts, mls) entries

let path_selected paths src =
  match paths with
  | [] -> true
  | _ :: _ ->
    List.exists
      (fun p ->
        let p = Rules.normalize p in
        String.equal p src || starts_with ~prefix:(p ^ "/") src
        || starts_with ~prefix:p src)
      paths

(* Bumped with any behavior change to the rules or the engine; reports
   and SARIF advertise it. *)
let version = "2.1.0"

(* A source some selected rule would read. *)
let in_scope cfg paths src =
  (not (excluded cfg src))
  && path_selected paths src
  && List.exists (fun (r : Rules.t) -> cfg.ignore_scopes || r.applies src) cfg.rules

let lint_build_dir ?(paths = []) cfg build_dir =
  let cmts, mls = walk_dir build_dir ~rel:"" ([], []) in
  let cmts = List.rev cmts in
  let compiled = Hashtbl.create 128 in
  let seen = Hashtbl.create 128 in
  let diags = ref [] in
  let errors = ref [] in
  List.iter
    (fun cmt_path ->
      match read_cmt cmt_path with
      | Error msg -> errors := msg :: !errors
      | Ok cmt -> (
        Option.iter (fun src -> Hashtbl.replace compiled src ()) (source_of_cmt cmt);
        match lintable cfg cmt with
        | Some (src, str)
          when (not (Hashtbl.mem seen src)) && path_selected paths src ->
          (* several executables may recompile the same source; the
             first cmt in walk order wins *)
          Hashtbl.add seen src ();
          setup_load_path ~root:build_dir cmt;
          diags := run_file cfg src str @ !diags
        | _ -> ()))
    cmts;
  (* A source the build copied but whose cmt is gone would otherwise go
     unread without a word: an incremental build deletes the cmts it no
     longer declares as targets. *)
  let missing =
    List.rev mls
    |> List.filter (fun src -> in_scope cfg paths src && not (Hashtbl.mem compiled src))
    |> List.map (fun src ->
           Printf.sprintf
             "%s: no .cmt under %s (an incremental build drops them; lint a clean build)" src
             build_dir)
  in
  (List.sort_uniq D.compare !diags, List.rev_append !errors missing, List.length cmts)
