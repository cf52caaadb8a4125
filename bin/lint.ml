(* dqr-lint - the project invariant linter. Loads the .cmt typedtrees
   dune already produced under _build and checks the load-bearing
   conventions the reproduction's trustworthiness rests on: no
   polymorphic compare on hot paths (R1), no ambient randomness (R2),
   no wall clock in simulation code (R3), telemetry publishes guarded
   by Bus.subscribed (R4), no captured-state mutation inside
   domain-pool workers (R5), no raw engine timers in node-scoped code
   (R6), no hash-ordered fold results escaping (R7), no partial
   functions (R8), no silent message drops (R9), and no process-global
   mutable state in the libraries (R10). See DESIGN.md section 9. *)

module Diagnostic = Dq_lint.Diagnostic
module Rules = Dq_lint.Rules
module Engine = Dq_lint.Engine
module Sarif = Dq_lint.Sarif
open Cmdliner

let list_rules () =
  print_endline "rule  name                    scope";
  print_endline "----  ----                    -----";
  List.iter
    (fun (r : Rules.t) ->
      Printf.printf "%-4s  %-22s  %s\n      %s\n" r.id r.name r.scope_doc
        r.summary)
    Rules.all

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let select_rules spec =
  match spec with
  | "all" -> Ok Rules.all
  | spec ->
    let keys =
      String.split_on_char ',' spec
      |> List.map String.trim
      |> List.filter (fun s -> not (String.equal s ""))
    in
    let missing =
      List.filter (fun k -> Option.is_none (Rules.find k)) keys
    in
    (match missing with
    | [] -> Ok (List.filter_map Rules.find keys)
    | m -> Error (Printf.sprintf "unknown rule(s): %s" (String.concat ", " m)))

let emit out contents =
  match out with
  | None -> ()
  | Some "-" -> print_string contents
  | Some f -> write_file f contents

let run build_dir json_out sarif_out rules_spec ignore_scopes show_rules quiet
    paths =
  if show_rules then begin
    list_rules ();
    0
  end
  else
    match select_rules rules_spec with
    | Error msg ->
      prerr_endline ("dqr-lint: " ^ msg);
      2
    | Ok rules ->
      if not (Sys.file_exists build_dir && Sys.is_directory build_dir) then begin
        Printf.eprintf
          "dqr-lint: build dir %s not found (run 'dune build' first)\n"
          build_dir;
        2
      end
      else begin
        let cfg =
          {
            Engine.rules;
            ignore_scopes;
            exclude_paths =
              (if ignore_scopes then []
               else Engine.default_config.exclude_paths);
          }
        in
        let diags, errors, cmts = Engine.lint_build_dir ~paths cfg build_dir in
        List.iter (fun e -> Printf.eprintf "dqr-lint: error: %s\n" e) errors;
        if not quiet then
          List.iter (fun d -> print_endline (Diagnostic.to_string d)) diags;
        emit json_out (Diagnostic.list_to_json ~rules diags);
        emit sarif_out (Sarif.to_string ~version:Engine.version ~rules diags);
        let n = List.length diags in
        if not quiet then
          Printf.printf "dqr-lint: %d finding%s (%d cmts)\n" n
            (if n = 1 then "" else "s")
            cmts;
        (* a load error means part of the tree went unread *)
        match errors with _ :: _ -> 2 | [] -> if n > 0 then 1 else 0
      end

let cmd =
  let build_dir =
    Arg.(
      value & opt string "_build/default"
      & info [ "build-dir" ] ~docv:"DIR"
          ~doc:"Build context root holding the .cmt artifacts.")
  in
  let json_out =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the findings as schema-2 JSON to $(docv) ('-' for \
             stdout).")
  in
  let sarif_out =
    Arg.(
      value & opt (some string) None
      & info [ "sarif" ] ~docv:"FILE"
          ~doc:
            "Write the findings as SARIF 2.1.0 to $(docv) ('-' for stdout), \
             for code-scanning upload.")
  in
  let rules =
    Arg.(
      value & opt string "all"
      & info [ "rules" ] ~docv:"LIST"
          ~doc:"Comma-separated rule ids or names to run (default: all).")
  in
  let ignore_scopes =
    Arg.(
      value & flag
      & info [ "ignore-scopes" ]
          ~doc:
            "Debug aid: run every rule on every file, ignoring both the \
             per-rule directory scoping and the default exclusions (so the \
             intentionally-violating lint fixtures flag too).")
  in
  let list_rules =
    Arg.(value & flag & info [ "list-rules" ] ~doc:"Print the rule table.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No per-finding output.")
  in
  let paths =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"PATH"
          ~doc:"Project-relative path prefixes to restrict the lint to.")
  in
  Cmd.v
    (Cmd.info "dqr-lint" ~version:Dq_lint.Engine.version
       ~doc:
         "Typedtree linter for the dual-quorum reproduction: determinism, \
          hot-path purity, domain-safety and protocol-lifecycle invariants, \
          machine-checked from the .cmt artifacts dune already builds")
    Term.(
      const run $ build_dir $ json_out $ sarif_out $ rules $ ignore_scopes
      $ list_rules $ quiet $ paths)

let () = exit (Cmd.eval' cmd)
