(* Golden tests for dqr-lint. Each rule has a violating and a clean
   fixture under test/lint_fixtures/; the fixtures are compiled as a
   regular library so their .cmt typedtrees exist, and copy rules in
   test/lint_fixtures/dune give them stable names. The test runs with
   cwd = _build/default/test, so the build root is ".." *)

module D = Dq_lint.Diagnostic
module Rules = Dq_lint.Rules
module Engine = Dq_lint.Engine
module Sarif = Dq_lint.Sarif

let fixture_cfg =
  { Engine.default_config with ignore_scopes = true; exclude_paths = [] }

let lint ?(cfg = fixture_cfg) name =
  let path = Filename.concat "lint_fixtures" (name ^ ".cmt") in
  match Engine.lint_cmt ~root:".." cfg path with
  | Ok ds -> ds
  | Error e -> Alcotest.failf "loading %s: %s" name e

let ids ds = List.map (fun (d : D.t) -> d.D.rule) ds
let strings ds = List.map D.to_string ds

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i =
    i + n <= h
    && (String.equal (String.sub haystack i n) needle || go (i + 1))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* One violating fixture per rule: expected rule ids at expected count *)

let test_bad_fixtures () =
  let expect name rule count =
    Alcotest.(check (list string))
      (name ^ " rule ids")
      (List.init count (fun _ -> rule))
      (ids (lint name))
  in
  expect "r1_bad" "R1" 5;
  expect "r2_bad" "R2" 2;
  expect "r3_bad" "R3" 3;
  expect "r4_bad" "R4" 2;
  expect "r5_bad" "R5" 3;
  expect "r6_bad" "R6" 4;
  expect "r7_bad" "R7" 3;
  expect "r8_bad" "R8" 3;
  expect "r9_bad" "R9" 2;
  expect "r10_bad" "R10" 4

let test_ok_fixtures () =
  List.iter
    (fun name ->
      Alcotest.(check (list string)) (name ^ " is clean") [] (strings (lint name)))
    [
      "r1_ok"; "r2_ok"; "r3_ok"; "r4_ok"; "r5_ok"; "r6_ok"; "r7_ok"; "r8_ok";
      "r9_ok"; "r10_ok";
    ]

(* ------------------------------------------------------------------ *)
(* Golden diagnostics: exact file:line:col, rule id and message text   *)

let test_golden_r2 () =
  let expected =
    [
      "test/lint_fixtures/r2_bad.ml:3:14: [R2] Stdlib.Random.int draws from \
       the ambient global generator; route randomness through Dq_util.Rng so \
       runs replay bit-for-bit";
      "test/lint_fixtures/r2_bad.ml:4:14: [R2] Stdlib.Random.bool draws from \
       the ambient global generator; route randomness through Dq_util.Rng so \
       runs replay bit-for-bit";
    ]
  in
  Alcotest.(check (list string)) "r2_bad golden" expected (strings (lint "r2_bad"))

let test_golden_r5 () =
  let expected =
    [
      "test/lint_fixtures/r5_bad.ml:8:41: [R5] worker closure writes a \
       captured ref via := (data race across pool domains)";
      "test/lint_fixtures/r5_bad.ml:13:33: [R5] worker closure mutates a \
       captured hash table via Hashtbl.replace (data race across pool domains)";
      "test/lint_fixtures/r5_bad.ml:16:33: [R5] worker closure mutates field \
       'v' of captured state (data race across pool domains)";
    ]
  in
  Alcotest.(check (list string)) "r5_bad golden" expected (strings (lint "r5_bad"))

let test_golden_r6 () =
  let msg how =
    Printf.sprintf
      "Dq_sim.Engine.%s arms a raw engine timer with no incarnation guard; \
       node-scoped callbacks must go through Net.timer so crash/amnesia \
       recovery drops them instead of letting them fire into the node's next \
       life"
      how
  in
  let expected =
    [
      "test/lint_fixtures/r6_bad.ml:5:27: [R6] " ^ msg "schedule";
      "test/lint_fixtures/r6_bad.ml:7:30: [R6] " ^ msg "schedule_at";
      "test/lint_fixtures/r6_bad.ml:10:10: [R6] " ^ msg "schedule_guarded";
      "test/lint_fixtures/r6_bad.ml:13:2: [R6] " ^ msg "schedule_delivery";
    ]
  in
  Alcotest.(check (list string)) "r6_bad golden" expected (strings (lint "r6_bad"))

let test_golden_r7 () =
  let expected =
    [
      "test/lint_fixtures/r7_bad.ml:5:2: [R7] Hashtbl.fold result escapes \
       the enclosing function in hash order; sort it deterministically \
       before it escapes, or accumulate commutatively (count/sum/min/max)";
      "test/lint_fixtures/r7_bad.ml:10:19: [R7] Hashtbl.fold result escapes \
       in hash order via local helper 'collect'; sort it at the escape point \
       or inside the helper";
      "test/lint_fixtures/r7_bad.ml:16:27: [R7] Hashtbl.iter conses into a \
       captured ref in hash order; use Hashtbl.fold and sort the result \
       before it escapes";
    ]
  in
  Alcotest.(check (list string)) "r7_bad golden" expected (strings (lint "r7_bad"))

let test_golden_r8 () =
  let msg fn =
    Printf.sprintf
      "%s raises on inputs its type allows; use a total pattern instead \
       (match, List.nth_opt, Option.value, Rng.choose)"
      fn
  in
  let expected =
    [
      "test/lint_fixtures/r8_bad.ml:3:27: [R8] " ^ msg "Stdlib.List.hd";
      "test/lint_fixtures/r8_bad.ml:5:27: [R8] " ^ msg "Stdlib.List.nth";
      "test/lint_fixtures/r8_bad.ml:7:32: [R8] " ^ msg "Stdlib.Option.get";
    ]
  in
  Alcotest.(check (list string)) "r8_bad golden" expected (strings (lint "r8_bad"))

let test_golden_r9 () =
  let msg =
    "wildcard arm silently drops messages of type Message.t; name the \
     constructors, emit a telemetry drop event, or annotate the deliberate \
     drop with [@dqr.lint.allow \"R9\"]"
  in
  let expected =
    [
      "test/lint_fixtures/r9_bad.ml:11:57: [R9] " ^ msg;
      "test/lint_fixtures/r9_bad.ml:15:57: [R9] " ^ msg;
    ]
  in
  Alcotest.(check (list string)) "r9_bad golden" expected (strings (lint "r9_bad"))

let test_golden_r10 () =
  let msg fn =
    Printf.sprintf
      "top-level value made by %s is process-global mutable state; pass it \
       explicitly (an argument, or a field of the value that owns it) so a \
       run is a pure function of its arguments"
      fn
  in
  let expected =
    [
      "test/lint_fixtures/r10_bad.ml:3:4: [R10] " ^ msg "Stdlib.ref";
      "test/lint_fixtures/r10_bad.ml:5:4: [R10] " ^ msg "Stdlib.Hashtbl.create";
      "test/lint_fixtures/r10_bad.ml:7:4: [R10] " ^ msg "Stdlib.Atomic.make";
      "test/lint_fixtures/r10_bad.ml:11:6: [R10] " ^ msg "Stdlib.ref";
    ]
  in
  Alcotest.(check (list string)) "r10_bad golden" expected (strings (lint "r10_bad"))

(* ------------------------------------------------------------------ *)
(* Suppression: inline attributes                                      *)

let test_suppression_attributes () =
  (* suppressed.ml repeats violations of R1 and R2 and of the wall-clock
     rule, each under a [@dqr.lint.allow] in a different position
     (expression, let-binding, floating file-level, empty payload). *)
  Alcotest.(check (list string))
    "suppressed.ml is silent" []
    (strings (lint "suppressed"))

(* ------------------------------------------------------------------ *)
(* Scoping: rules only fire inside their declared subtrees             *)

let test_scoping () =
  let scoped = { Engine.default_config with exclude_paths = [] } in
  (* R1 is scoped to lib/ — the same fixture that shows 5 findings with
     scoping off shows none with scoping on. *)
  Alcotest.(check int)
    "R1 out of scope under test/" 0
    (List.length (lint ~cfg:scoped "r1_bad"));
  (* R2 applies everywhere outside lib/util/rng.ml, including test/. *)
  Alcotest.(check int)
    "R2 in scope under test/" 2
    (List.length (lint ~cfg:scoped "r2_bad"));
  (* The lifecycle rules are scoped to the node-side library subtrees:
     the same violating fixtures are vacuous under test/. *)
  Alcotest.(check int)
    "R6 out of scope under test/" 0
    (List.length (lint ~cfg:scoped "r6_bad"));
  Alcotest.(check int)
    "R8 out of scope under test/" 0
    (List.length (lint ~cfg:scoped "r8_bad"));
  Alcotest.(check int)
    "R9 out of scope under test/" 0
    (List.length (lint ~cfg:scoped "r9_bad"));
  Alcotest.(check int)
    "R10 out of scope under test/" 0
    (List.length (lint ~cfg:scoped "r10_bad"));
  (* The default config excludes the fixture tree entirely. *)
  Alcotest.(check int)
    "default config skips fixtures" 0
    (List.length (lint ~cfg:Engine.default_config "r2_bad"))

(* ------------------------------------------------------------------ *)
(* Report output: schema-2 JSON envelope                               *)

let test_json_shape () =
  let ds = lint "r2_bad" in
  (match ds with
  | d :: _ ->
    Alcotest.(check string)
      "single diagnostic json"
      "{\"rule\":\"R2\",\"file\":\"test/lint_fixtures/r2_bad.ml\",\"line\":3,\
       \"col\":14,\"message\":\"Stdlib.Random.int draws from the ambient \
       global generator; route randomness through Dq_util.Rng so runs replay \
       bit-for-bit\"}"
      (D.to_json d)
  | [] -> Alcotest.fail "r2_bad produced no diagnostics");
  let json = D.list_to_json ~rules:Rules.all ds in
  let has needle = contains json needle in
  Alcotest.(check bool) "schema version 2" true (has "\"version\":2");
  Alcotest.(check bool) "has count" true (has "\"count\":2");
  (* the envelope carries the full rule table with per-rule tallies *)
  Alcotest.(check bool)
    "rule table entry for R2 counts its findings" true
    (has "{\"id\":\"R2\",\"name\":\"no-ambient-randomness\"");
  Alcotest.(check bool) "R2 tally" true (has "\"findings\":2}");
  Alcotest.(check bool)
    "R9 present with zero findings" true
    (has "{\"id\":\"R9\",\"name\":\"no-silent-drop\"");
  Alcotest.(check bool)
    "envelope opens" true
    (String.length json > 0 && Char.equal json.[0] '{');
  Alcotest.(check string)
    "empty report golden"
    "{\"version\":2,\"count\":0,\"rules\":[],\"diagnostics\":[]}\n"
    (D.list_to_json ~rules:[] [])

(* ------------------------------------------------------------------ *)
(* Report output: SARIF 2.1.0                                          *)

let test_sarif_shape () =
  let ds = lint "r8_bad" in
  let sarif = Sarif.to_string ~version:Engine.version ~rules:Rules.all ds in
  let has needle = contains sarif needle in
  Alcotest.(check bool) "sarif version" true (has "\"version\": \"2.1.0\"");
  Alcotest.(check bool)
    "schema pointer" true
    (has "sarif-schema-2.1.0.json");
  Alcotest.(check bool) "tool name" true (has "\"name\": \"dqr-lint\"");
  Alcotest.(check bool)
    "tool version" true
    (has (Printf.sprintf "\"version\": \"%s\"" Engine.version));
  (* R8 is the 8th rule in the catalogue: ruleIndex 7 *)
  Alcotest.(check bool)
    "ruleId + ruleIndex" true
    (has "\"ruleId\":\"R8\",\"ruleIndex\":7");
  (* our columns are 0-based, SARIF's are 1-based: 27 -> 28 *)
  Alcotest.(check bool)
    "region is 1-based" true
    (has "\"region\":{\"startLine\":3,\"startColumn\":28}");
  Alcotest.(check bool)
    "artifact uri" true
    (has "\"uri\":\"test/lint_fixtures/r8_bad.ml\"");
  Alcotest.(check bool)
    "column kind" true
    (has "\"columnKind\": \"utf16CodeUnits\"")

(* Same fixture linted twice must serialize to the same bytes — the
   report is part of the CI contract (validate_lint.py diffs it). *)
let test_report_stability () =
  let render () =
    let ds = lint "r8_bad" @ lint "r7_bad" in
    let ds = List.sort_uniq D.compare ds in
    ( D.list_to_json ~rules:Rules.all ds,
      Sarif.to_string ~version:Engine.version ~rules:Rules.all ds )
  in
  let json1, sarif1 = render () in
  let json2, sarif2 = render () in
  Alcotest.(check string) "schema-2 bytes stable" json1 json2;
  Alcotest.(check string) "sarif bytes stable" sarif1 sarif2

(* ------------------------------------------------------------------ *)
(* The build-dir walk                                                  *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(* A throwaway build dir holding copies of fixture cmts: two units, a
   second copy of the first (same source, as when several executables
   recompile one file) and a truncated artifact that cannot load. *)
let test_build_dir_walk () =
  let dir = "lint_walk_probe" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let cleanup () =
    Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
    Sys.rmdir dir
  in
  Fun.protect ~finally:cleanup (fun () ->
      let r6 = read_file "lint_fixtures/r6_bad.cmt" in
      let put name contents = write_file (Filename.concat dir name) contents in
      put "a.cmt" r6;
      put "b.cmt" (read_file "lint_fixtures/r8_bad.cmt");
      put "c.cmt" r6;
      put "truncated.cmt" (String.sub r6 0 (String.length r6 / 2));
      let ds, errors, cmts = Engine.lint_build_dir fixture_cfg dir in
      Alcotest.(check (list string))
        "findings (the duplicate source adds none)"
        [ "R6"; "R6"; "R6"; "R6"; "R8"; "R8"; "R8" ]
        (ids ds);
      (match errors with
      | [ e ] ->
        Alcotest.(check bool)
          "load error names the truncated cmt" true
          (contains e "truncated.cmt")
      | _ -> Alcotest.failf "expected one load error, got %d" (List.length errors));
      Alcotest.(check int) "cmts walked" 4 cmts)

(* A build dir holding a copied source whose cmt is gone, as an
   incremental build leaves one: the walk must say so, not read less.
   The fixture cmt records [test/lint_fixtures/r6_bad.ml], so that
   source, also present, is compiled and not reported. *)
let test_source_without_cmt () =
  let dir = "lint_missing_probe" in
  let fixtures = Filename.concat dir "test/lint_fixtures" in
  let rec mkdirs d =
    if not (Sys.file_exists d) then begin
      mkdirs (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  let rec remove path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> remove (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then remove dir)
    (fun () ->
      mkdirs fixtures;
      write_file (Filename.concat dir "a.cmt") (read_file "lint_fixtures/r6_bad.cmt");
      write_file (Filename.concat fixtures "r6_bad.ml") "";
      write_file (Filename.concat fixtures "orphan.ml") "";
      let ds, errors, cmts = Engine.lint_build_dir fixture_cfg dir in
      Alcotest.(check (list string)) "the compiled source is still linted"
        [ "R6"; "R6"; "R6"; "R6" ]
        (ids ds);
      Alcotest.(check int) "cmts walked" 1 cmts;
      match errors with
      | [ e ] ->
        Alcotest.(check bool) "load error names the source" true
          (contains e "test/lint_fixtures/orphan.ml")
      | _ -> Alcotest.failf "expected one load error, got %d" (List.length errors))

(* ------------------------------------------------------------------ *)
(* Rule registry                                                       *)

let test_rule_registry () =
  Alcotest.(check int) "ten rules" 10 (List.length Rules.all);
  let id_of k =
    match Rules.find k with
    | Some (r : Rules.t) -> r.Rules.id
    | None -> Alcotest.failf "rule %s not found" k
  in
  Alcotest.(check string) "find by id" "R1" (id_of "R1");
  Alcotest.(check string) "find by name" "R3" (id_of "no-wall-clock");
  Alcotest.(check string) "find R5 by name" "R5" (id_of "domain-safety");
  Alcotest.(check string) "find R6 by name" "R6" (id_of "no-raw-timer");
  Alcotest.(check string) "find R7 by name" "R7" (id_of "ordered-fold");
  Alcotest.(check string) "find R8 by name" "R8" (id_of "no-partial-functions");
  Alcotest.(check string) "find R9 by name" "R9" (id_of "no-silent-drop");
  Alcotest.(check string) "find R10 by name" "R10" (id_of "no-global-state");
  (match Rules.find "R11" with
  | None -> ()
  | Some _ -> Alcotest.fail "R11 should not resolve")

let () =
  Alcotest.run "lint"
    [
      ( "fixtures",
        [
          Alcotest.test_case "violating fixtures" `Quick test_bad_fixtures;
          Alcotest.test_case "clean fixtures" `Quick test_ok_fixtures;
          Alcotest.test_case "golden R2" `Quick test_golden_r2;
          Alcotest.test_case "golden R5" `Quick test_golden_r5;
          Alcotest.test_case "golden R6" `Quick test_golden_r6;
          Alcotest.test_case "golden R7" `Quick test_golden_r7;
          Alcotest.test_case "golden R8" `Quick test_golden_r8;
          Alcotest.test_case "golden R9" `Quick test_golden_r9;
          Alcotest.test_case "golden R10" `Quick test_golden_r10;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "attributes" `Quick test_suppression_attributes;
        ] );
      ( "config",
        [
          Alcotest.test_case "scoping" `Quick test_scoping;
          Alcotest.test_case "json shape" `Quick test_json_shape;
          Alcotest.test_case "sarif shape" `Quick test_sarif_shape;
          Alcotest.test_case "report stability" `Quick test_report_stability;
          Alcotest.test_case "rule registry" `Quick test_rule_registry;
        ] );
      ( "engine",
        [
          Alcotest.test_case "build-dir walk" `Quick test_build_dir_walk;
          Alcotest.test_case "source without cmt" `Quick test_source_without_cmt;
        ] );
    ]
