(* Unit tests of the regular-semantics checker on synthetic histories. *)

module H = Dq_harness.History
module C = Dq_harness.Regular_checker
module S = Dq_harness.Staleness
module Oracle = Checker_oracle
open Dq_storage

let key = Key.make ~volume:0 ~index:0
let key2 = Key.make ~volume:0 ~index:1

let mk_op ~id ~kind ~value ~lc ~invoked ~responded =
  {
    H.id;
    client = 0;
    key;
    kind;
    value;
    lc;
    invoked;
    responded;
    gave_up = None;
  }

let lc c = Some (Lc.make ~count:c ~node:0)

let write ~id ~value ~c ~invoked ~responded =
  mk_op ~id ~kind:H.Write ~value ~lc:(lc c) ~invoked ~responded

let read ~id ~value ~c ~invoked ~responded =
  mk_op ~id ~kind:H.Read ~value ~lc:(lc c) ~invoked ~responded:(Some responded)

let violations ops = List.length (C.check ops).C.violations

let test_read_after_write_ok () =
  let ops =
    [
      write ~id:0 ~value:"a" ~c:1 ~invoked:0. ~responded:(Some 10.);
      read ~id:1 ~value:"a" ~c:1 ~invoked:20. ~responded:30.;
    ]
  in
  Alcotest.(check int) "no violations" 0 (violations ops)

let test_stale_read_flagged () =
  let ops =
    [
      write ~id:0 ~value:"a" ~c:1 ~invoked:0. ~responded:(Some 10.);
      write ~id:1 ~value:"b" ~c:2 ~invoked:20. ~responded:(Some 30.);
      read ~id:2 ~value:"a" ~c:1 ~invoked:40. ~responded:50.;
    ]
  in
  Alcotest.(check int) "stale read flagged" 1 (violations ops)

let test_concurrent_write_either_value_ok () =
  let ops v =
    [
      write ~id:0 ~value:"old" ~c:1 ~invoked:0. ~responded:(Some 10.);
      write ~id:1 ~value:"new" ~c:2 ~invoked:20. ~responded:(Some 60.);
      (* Read overlaps the second write. *)
      read ~id:2 ~value:v ~c:(if v = "old" then 1 else 2) ~invoked:30. ~responded:50.;
    ]
  in
  Alcotest.(check int) "old ok" 0 (violations (ops "old"));
  Alcotest.(check int) "new ok" 0 (violations (ops "new"))

let test_value_from_before_last_completed_flagged_even_if_concurrent_exists () =
  (* A write completed before the read; returning a yet older value is
     stale even while another write is concurrent. *)
  let ops =
    [
      write ~id:0 ~value:"ancient" ~c:1 ~invoked:0. ~responded:(Some 5.);
      write ~id:1 ~value:"current" ~c:2 ~invoked:10. ~responded:(Some 20.);
      write ~id:2 ~value:"inflight" ~c:3 ~invoked:30. ~responded:(Some 90.);
      read ~id:3 ~value:"ancient" ~c:1 ~invoked:40. ~responded:50.;
    ]
  in
  Alcotest.(check int) "ancient flagged" 1 (violations ops)

let test_initial_value_before_writes_ok () =
  let ops =
    [
      read ~id:0 ~value:"" ~c:0 ~invoked:0. ~responded:5.;
      write ~id:1 ~value:"a" ~c:1 ~invoked:10. ~responded:(Some 20.);
    ]
  in
  Alcotest.(check int) "initial ok" 0 (violations ops)

let test_initial_value_after_write_flagged () =
  let ops =
    [
      write ~id:0 ~value:"a" ~c:1 ~invoked:0. ~responded:(Some 10.);
      read ~id:1 ~value:"" ~c:0 ~invoked:20. ~responded:30.;
    ]
  in
  Alcotest.(check int) "stale initial flagged" 1 (violations ops)

let test_unknown_value_flagged () =
  let ops =
    [
      write ~id:0 ~value:"a" ~c:1 ~invoked:0. ~responded:(Some 10.);
      read ~id:1 ~value:"phantom" ~c:9 ~invoked:20. ~responded:30.;
    ]
  in
  Alcotest.(check int) "phantom flagged" 1 (violations ops)

let test_incomplete_write_concurrent_with_later_reads () =
  (* A write that never completed may become visible at any later time. *)
  let ops =
    [
      mk_op ~id:0 ~kind:H.Write ~value:"w" ~lc:None ~invoked:0. ~responded:None;
      read ~id:1 ~value:"w" ~c:1 ~invoked:1000. ~responded:1010.;
    ]
  in
  Alcotest.(check int) "allowed" 0 (violations ops)

let test_incomplete_write_does_not_force_staleness () =
  (* An incomplete write does not oblige reads to observe it. *)
  let ops =
    [
      write ~id:0 ~value:"a" ~c:1 ~invoked:0. ~responded:(Some 10.);
      mk_op ~id:1 ~kind:H.Write ~value:"b" ~lc:(lc 2) ~invoked:20. ~responded:None;
      read ~id:2 ~value:"a" ~c:1 ~invoked:30. ~responded:40.;
    ]
  in
  Alcotest.(check int) "old value still ok" 0 (violations ops)

let test_boundary_response_equals_invocation () =
  (* Closed-loop clients invoke the next operation at the exact instant
     the previous one responds; the write counts as completed. *)
  let ops =
    [
      write ~id:0 ~value:"a" ~c:1 ~invoked:0. ~responded:(Some 10.);
      read ~id:1 ~value:"a" ~c:1 ~invoked:10. ~responded:20.;
    ]
  in
  Alcotest.(check int) "boundary ok" 0 (violations ops);
  let stale =
    [
      write ~id:0 ~value:"a" ~c:1 ~invoked:0. ~responded:(Some 10.);
      write ~id:1 ~value:"b" ~c:2 ~invoked:10. ~responded:(Some 20.);
      read ~id:2 ~value:"a" ~c:1 ~invoked:20. ~responded:30.;
    ]
  in
  Alcotest.(check int) "boundary stale flagged" 1 (violations stale)

let test_keys_checked_independently () =
  let on_key2 op = { op with H.key = key2 } in
  let ops =
    [
      write ~id:0 ~value:"a" ~c:1 ~invoked:0. ~responded:(Some 10.);
      on_key2 (write ~id:1 ~value:"b" ~c:5 ~invoked:0. ~responded:(Some 10.));
      (* Reading key1 must not be affected by key2's write. *)
      read ~id:2 ~value:"a" ~c:1 ~invoked:20. ~responded:30.;
      on_key2 (read ~id:3 ~value:"b" ~c:5 ~invoked:20. ~responded:30.);
    ]
  in
  Alcotest.(check int) "independent keys" 0 (violations ops)

let test_incomplete_reads_not_checked () =
  let ops =
    [
      write ~id:0 ~value:"a" ~c:1 ~invoked:0. ~responded:(Some 10.);
      mk_op ~id:1 ~kind:H.Read ~value:"" ~lc:None ~invoked:20. ~responded:None;
    ]
  in
  let report = C.check ops in
  Alcotest.(check int) "one read seen" 1 report.C.reads;
  Alcotest.(check int) "zero checked" 0 report.C.checked;
  Alcotest.(check int) "no violations" 0 (List.length report.C.violations)

let test_report_counts () =
  let ops =
    [
      write ~id:0 ~value:"a" ~c:1 ~invoked:0. ~responded:(Some 10.);
      read ~id:1 ~value:"a" ~c:1 ~invoked:20. ~responded:30.;
      read ~id:2 ~value:"" ~c:0 ~invoked:40. ~responded:50.;
    ]
  in
  let report = C.check ops in
  Alcotest.(check int) "reads" 2 report.C.reads;
  Alcotest.(check int) "checked" 2 report.C.checked;
  Alcotest.(check int) "violations" 1 (List.length report.C.violations);
  Alcotest.(check bool) "is_regular false" false (C.is_regular ops)

let test_history_recording () =
  let h = H.create () in
  let id = H.begin_op h ~client:3 ~key ~kind:H.Write ~value:"v" ~now:1. in
  Alcotest.(check int) "size" 1 (H.size h);
  Alcotest.(check int) "completed" 0 (H.completed_count h);
  H.complete_op h ~id ~value:"ignored-for-writes" ~lc:(Lc.make ~count:1 ~node:0) ~now:2.;
  Alcotest.(check int) "completed" 1 (H.completed_count h);
  match H.ops h with
  | [ op ] ->
    Alcotest.(check string) "write keeps its own value" "v" op.H.value;
    Alcotest.(check (option (float 0.))) "responded" (Some 2.) op.H.responded
  | _ -> Alcotest.fail "one op expected"

(* Differential tests: the indexed checker and staleness measures
   against the quadratic oracle they replaced. Reports must be equal
   structurally and bit for bit (floats included), so they are compared
   by their unshared marshalled bytes. *)

let same a b =
  String.equal
    (Marshal.to_string a [ Marshal.No_sharing ])
    (Marshal.to_string b [ Marshal.No_sharing ])

let agrees ops =
  let oracle = Oracle.check ops in
  same (C.check ops) oracle
  && same (S.measure ops) (Oracle.measure ops)
  && same (S.measure_age ops) (Oracle.measure_age ops)
  && same (C.new_old_inversions ops) (Oracle.new_old_inversions ops)
  && Bool.equal (C.is_atomic ops)
       (match oracle.C.violations, Oracle.new_old_inversions ops with
       | [], [] -> true
       | _ -> false)

(* Random multi-key histories on a coarse integer clock, so that equal
   times (a write responding at the instant a read is invoked) and
   equal logical clocks are common. Writes may be incomplete, with or
   without a clock, and may give up; values are sometimes duplicated.
   Reads return the initial value, a value never written, a value with
   no clock, or the value of any earlier-generated write (often a stale
   one, as from a lagging replica); ids are in or against input order. *)
let gen_history =
  QCheck.Gen.(
    let* n = int_range 0 40 in
    let* keys = int_range 1 3 in
    let* reverse_ids = bool in
    let rec ops i writes acc =
      if i = n then return (List.rev acc)
      else
        let* key = map (fun index -> Key.make ~volume:0 ~index) (int_range 0 (keys - 1)) in
        let* invoked = map float_of_int (int_range 0 60) in
        let* duration = map float_of_int (int_range 0 15) in
        let* completes = frequencyl [ (4, true); (1, false) ] in
        let* gives_up = bool in
        let* is_write = bool in
        let* random_lc =
          map2 (fun count node -> Lc.make ~count ~node) (int_range 1 6) (int_range 0 1)
        in
        let* pick = int_range 0 (List.length writes) in
        let earlier = List.nth_opt writes pick in
        let op =
          {
            H.id = (if reverse_ids then n - 1 - i else i);
            client = i mod 3;
            key;
            kind = H.Read;
            value = "";
            lc = None;
            invoked;
            responded = (if completes then Some (invoked +. duration) else None);
            gave_up = (if completes || not gives_up then None else Some (invoked +. duration));
          }
        in
        if is_write then
          let* duplicate = frequencyl [ (1, true); (4, false) ] in
          let* clocked = bool in
          let value =
            match earlier with
            | Some (w : H.op) when duplicate -> w.value
            | _ -> Printf.sprintf "v%d" i
          in
          let lc = if completes || clocked then Some random_lc else None in
          let w = { op with kind = H.Write; value; lc } in
          ops (i + 1) (w :: writes) (w :: acc)
        else
          let* (choice : [ `Initial | `Phantom | `Clockless | `Earlier ]) =
            frequencyl [ (1, `Initial); (1, `Phantom); (1, `Clockless); (5, `Earlier) ]
          in
          let r =
            match choice, earlier with
            | _, _ when not completes -> op
            | `Initial, _ | `Earlier, None -> { op with lc = Some Lc.zero }
            | `Phantom, _ -> { op with value = "phantom"; lc = Some random_lc }
            | `Clockless, _ -> { op with value = Printf.sprintf "v%d" pick }
            | `Earlier, Some w ->
              { op with value = w.value; lc = Some (Option.value w.lc ~default:random_lc) }
          in
          ops (i + 1) writes (r :: acc)
    in
    ops 0 [] [])

let print_history ops =
  String.concat "\n"
    (List.map
       (fun (op : H.op) ->
         Printf.sprintf "#%d k%d %s %S lc=%s [%g, %s]%s" op.id (Key.index op.key)
           (match op.kind with H.Read -> "R" | H.Write -> "W")
           op.value
           (match op.lc with Some lc -> Format.asprintf "%a" Lc.pp lc | None -> "-")
           op.invoked
           (match op.responded with Some t -> Printf.sprintf "%g" t | None -> "-")
           (match op.gave_up with Some _ -> " gave-up" | None -> ""))
       ops)

let prop_agrees_with_oracle =
  QCheck.Test.make ~name:"indexed = quadratic oracle on random histories" ~count:2000
    (QCheck.make ~print:print_history gen_history)
    agrees

let w ~id ~value ~c ~node ~invoked ~responded =
  mk_op ~id ~kind:H.Write ~value ~lc:(Some (Lc.make ~count:c ~node)) ~invoked ~responded

let test_equal_clocks_later_write_is_freshest () =
  (* Two writes share a clock; the later one in input order responded
     first. It is the freshest, so reading the other is stale. *)
  let first = w ~id:0 ~value:"a" ~c:3 ~node:0 ~invoked:0. ~responded:(Some 20.) in
  let second = w ~id:1 ~value:"b" ~c:3 ~node:0 ~invoked:0. ~responded:(Some 10.) in
  let ops v = [ first; second; read ~id:2 ~value:v ~c:3 ~invoked:30. ~responded:40. ] in
  Alcotest.(check bool) "read of the later write ok" true (C.is_regular (ops "b"));
  (match (C.check (ops "a")).C.violations with
  | [ v ] ->
    Alcotest.(check (option int)) "returned the earlier write" (Some 0)
      (Option.map (fun (op : H.op) -> op.id) v.C.returned_write)
  | _ -> Alcotest.fail "one violation expected");
  Alcotest.(check bool) "oracle agrees" true (agrees (ops "a") && agrees (ops "b"))

let test_duplicate_value_resolves_to_last_write () =
  (* "x" is written twice; the read returning it is attributed to the
     second, in-flight write and so is legal. *)
  let ops =
    [
      w ~id:0 ~value:"x" ~c:1 ~node:0 ~invoked:0. ~responded:(Some 10.);
      w ~id:1 ~value:"y" ~c:2 ~node:0 ~invoked:10. ~responded:(Some 20.);
      w ~id:2 ~value:"x" ~c:3 ~node:0 ~invoked:25. ~responded:(Some 100.);
      read ~id:3 ~value:"x" ~c:3 ~invoked:30. ~responded:40.;
    ]
  in
  Alcotest.(check int) "no violation" 0 (violations ops);
  Alcotest.(check bool) "oracle agrees" true (agrees ops)

let test_age_of_clock_written_twice () =
  (* The age is measured from the first completed write with the read's
     clock, in input order. *)
  let ops =
    [
      w ~id:0 ~value:"a" ~c:5 ~node:0 ~invoked:0. ~responded:(Some 10.);
      w ~id:1 ~value:"b" ~c:5 ~node:0 ~invoked:0. ~responded:(Some 30.);
      read ~id:2 ~value:"b" ~c:5 ~invoked:40. ~responded:50.;
    ]
  in
  Alcotest.(check (float 0.)) "age from the first write" 40. (S.measure_age ops).S.mean_age_ms;
  Alcotest.(check bool) "oracle agrees" true (agrees ops)

let test_staleness_counts_equal_clocks () =
  (* Both writes with clock 2 supersede the read's clock 1. *)
  let ops =
    [
      w ~id:0 ~value:"a" ~c:1 ~node:0 ~invoked:0. ~responded:(Some 5.);
      w ~id:1 ~value:"b" ~c:2 ~node:0 ~invoked:5. ~responded:(Some 10.);
      w ~id:2 ~value:"c" ~c:2 ~node:0 ~invoked:5. ~responded:(Some 12.);
      read ~id:3 ~value:"a" ~c:1 ~invoked:20. ~responded:25.;
    ]
  in
  (match (S.measure ops).S.stale with
  | [ s ] ->
    Alcotest.(check int) "versions behind" 2 s.S.versions_behind;
    Alcotest.(check (float 0.)) "behind the freshest missed write" 13. s.S.behind_ms
  | _ -> Alcotest.fail "one stale read expected");
  Alcotest.(check bool) "oracle agrees" true (agrees ops)

let test_inversion_at_equal_response_times () =
  (* Zero-length reads #2 and #3 respond at one instant. Pairs follow
     the sort by response time with equal times in reverse input order,
     so #3 sorts before #2 and only (#2, #4) is an inversion. *)
  let ops =
    [
      w ~id:0 ~value:"a" ~c:1 ~node:0 ~invoked:0. ~responded:(Some 5.);
      w ~id:1 ~value:"b" ~c:2 ~node:0 ~invoked:6. ~responded:None;
      read ~id:2 ~value:"b" ~c:2 ~invoked:10. ~responded:10.;
      read ~id:3 ~value:"a" ~c:1 ~invoked:10. ~responded:10.;
      read ~id:4 ~value:"a" ~c:1 ~invoked:10. ~responded:20.;
    ]
  in
  Alcotest.(check (list (pair int int)))
    "inversions" [ (2, 4) ]
    (List.map
       (fun (v : C.inversion) -> (v.C.first_read.H.id, v.C.second_read.H.id))
       (C.new_old_inversions ops));
  Alcotest.(check bool) "not atomic" false (C.is_atomic ops);
  Alcotest.(check bool) "oracle agrees" true (agrees ops)

(* A long single-key history: sequential operations 10 ms apart, the
   first three of every ten are writes (30%), and the read at each
   i = 5 mod 10 000 returns the write before the freshest. Per-read
   scans of the key's writes would take 140 000 × 60 000 steps here;
   the index needs a fraction of a second. *)
let long_history ~stale =
  List.init 200_000 (fun i ->
      let invoked = 10. *. float_of_int i in
      let writes_before = (3 * (i / 10)) + Int.min 3 (i mod 10) in
      if i mod 10 < 3 then
        let c = writes_before + 1 in
        write ~id:i ~value:(Printf.sprintf "w%d" c) ~c ~invoked ~responded:(Some (invoked +. 5.))
      else
        let c = if stale && i mod 10_000 = 5 then writes_before - 1 else writes_before in
        read ~id:i ~value:(Printf.sprintf "w%d" c) ~c ~invoked ~responded:(invoked +. 5.))

let test_scale () =
  let ops = long_history ~stale:true in
  let report = C.check ops in
  Alcotest.(check int) "reads" 140_000 report.C.reads;
  Alcotest.(check int) "checked" 140_000 report.C.checked;
  Alcotest.(check int) "violations" 20 (List.length report.C.violations);
  let staleness = S.measure ops in
  Alcotest.(check int) "stale" 20 (List.length staleness.S.stale);
  Alcotest.(check int) "versions behind" 1 staleness.S.max_versions_behind;
  Alcotest.(check (float 0.)) "mean behind" 30. staleness.S.mean_behind_ms;
  let age = S.measure_age ops in
  Alcotest.(check int) "aged reads" 140_000 age.S.reads;
  Alcotest.(check (float 0.)) "max age" 70. age.S.max_age_ms;
  Alcotest.(check (float 0.)) "mean age" (5_600_200. /. 140_000.) age.S.mean_age_ms;
  let clean = long_history ~stale:false in
  Alcotest.(check int) "no inversions" 0 (List.length (C.new_old_inversions clean));
  Alcotest.(check bool) "atomic" true (C.is_atomic clean)

let () =
  Alcotest.run "checker"
    [
      ( "unit",
        [
          Alcotest.test_case "read after write" `Quick test_read_after_write_ok;
          Alcotest.test_case "stale read" `Quick test_stale_read_flagged;
          Alcotest.test_case "concurrent write" `Quick test_concurrent_write_either_value_ok;
          Alcotest.test_case "older than last completed" `Quick
            test_value_from_before_last_completed_flagged_even_if_concurrent_exists;
          Alcotest.test_case "initial before writes" `Quick test_initial_value_before_writes_ok;
          Alcotest.test_case "initial after write" `Quick test_initial_value_after_write_flagged;
          Alcotest.test_case "unknown value" `Quick test_unknown_value_flagged;
          Alcotest.test_case "incomplete write visible later" `Quick
            test_incomplete_write_concurrent_with_later_reads;
          Alcotest.test_case "incomplete write optional" `Quick
            test_incomplete_write_does_not_force_staleness;
          Alcotest.test_case "boundary instants" `Quick test_boundary_response_equals_invocation;
          Alcotest.test_case "keys independent" `Quick test_keys_checked_independently;
          Alcotest.test_case "incomplete reads" `Quick test_incomplete_reads_not_checked;
          Alcotest.test_case "report counts" `Quick test_report_counts;
          Alcotest.test_case "history recording" `Quick test_history_recording;
        ] );
      ("differential", [ QCheck_alcotest.to_alcotest prop_agrees_with_oracle ]);
      ( "ties",
        [
          Alcotest.test_case "equal clocks: later write freshest" `Quick
            test_equal_clocks_later_write_is_freshest;
          Alcotest.test_case "duplicate value: last write" `Quick
            test_duplicate_value_resolves_to_last_write;
          Alcotest.test_case "age: first write of a clock" `Quick test_age_of_clock_written_twice;
          Alcotest.test_case "staleness: equal clocks counted" `Quick
            test_staleness_counts_equal_clocks;
          Alcotest.test_case "inversions: equal response times" `Quick
            test_inversion_at_equal_response_times;
        ] );
      ("scale", [ Alcotest.test_case "200k-op history" `Quick test_scale ]);
    ]
