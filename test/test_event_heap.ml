module H = Dq_sim.Event_heap

let drain h =
  let rec go acc = match H.pop h with None -> List.rev acc | Some x -> go (x :: acc) in
  go []

let heap_of entries =
  let h = H.create ~dummy:(-1) in
  List.iter (fun ((time, seq), payload) -> H.push h ~time ~seq payload) entries;
  h

let test_empty () =
  let h = H.create ~dummy:0 in
  Alcotest.(check bool) "empty" true (H.is_empty h);
  Alcotest.(check int) "size" 0 (H.size h);
  Alcotest.(check (option int)) "peek" None (H.peek h);
  Alcotest.(check (option int)) "pop" None (H.pop h)

let test_time_order () =
  let h = heap_of [ ((5., 0), 50); ((1., 1), 10); ((4., 2), 40); ((2., 3), 20) ] in
  Alcotest.(check (list int)) "ascending time" [ 10; 20; 40; 50 ] (drain h)

let test_ties_broken_by_seq () =
  let h = heap_of [ ((1., 3), 3); ((1., 1), 1); ((1., 2), 2); ((0., 9), 0) ] in
  Alcotest.(check (list int)) "seq order within a tie" [ 0; 1; 2; 3 ] (drain h)

(* Repeated timestamps and payloads are all kept: nothing is merged or
   dropped. *)
let test_duplicates () =
  let h = heap_of [ ((2., 0), 2); ((1., 1), 1); ((2., 2), 2); ((1., 3), 1) ] in
  Alcotest.(check int) "size" 4 (H.size h);
  Alcotest.(check (list int)) "sorted with dups" [ 1; 1; 2; 2 ] (drain h)

let test_peek_does_not_remove () =
  let h = heap_of [ ((2., 0), 9) ] in
  Alcotest.(check (option int)) "peek" (Some 9) (H.peek h);
  Alcotest.(check int) "size unchanged" 1 (H.size h)

let test_interleaved () =
  let h = H.create ~dummy:(-1) in
  H.push h ~time:3. ~seq:0 3;
  H.push h ~time:1. ~seq:1 1;
  Alcotest.(check (option int)) "pop 1" (Some 1) (H.pop h);
  H.push h ~time:0.5 ~seq:2 0;
  H.push h ~time:2. ~seq:3 2;
  Alcotest.(check (option int)) "pop 0" (Some 0) (H.pop h);
  Alcotest.(check (option int)) "pop 2" (Some 2) (H.pop h);
  Alcotest.(check (option int)) "pop 3" (Some 3) (H.pop h);
  Alcotest.(check (option int)) "drained" None (H.pop h)

(* Reference model: sorting the (time, seq) keys. Payload is the input
   position so we can see exactly which entry came out. *)
let prop_pop_order_matches_sorted_model =
  QCheck.Test.make ~name:"pop order matches sorted reference, ties by seq" ~count:500
    QCheck.(list (pair (int_range 0 20) small_nat))
    (fun raw ->
      (* Distinct seqs (the engine guarantees this); coarse times force
         plenty of ties. *)
      let entries =
        List.mapi (fun seq (t, _) -> ((float_of_int t /. 4., seq), seq)) raw
      in
      let expected =
        List.sort
          (fun ((t1, s1), _) ((t2, s2), _) ->
            let c = Float.compare t1 t2 in
            if c <> 0 then c else Int.compare s1 s2)
          entries
        |> List.map snd
      in
      drain (heap_of entries) = expected)

let prop_size_tracks =
  QCheck.Test.make ~name:"size tracks pushes and pops" ~count:200
    QCheck.(list (int_range 0 100))
    (fun xs ->
      let h = H.create ~dummy:(-1) in
      List.iteri (fun seq x -> H.push h ~time:(float_of_int x) ~seq seq) xs;
      let n = List.length xs in
      let ok = ref (H.size h = n) in
      let rec pop_all k =
        match H.pop h with
        | None -> if k <> 0 then ok := false
        | Some _ ->
          if H.size h <> k - 1 then ok := false;
          pop_all (k - 1)
      in
      pop_all n;
      !ok)

let () =
  Alcotest.run "event_heap"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "time order" `Quick test_time_order;
          Alcotest.test_case "ties broken by seq" `Quick test_ties_broken_by_seq;
          Alcotest.test_case "duplicates" `Quick test_duplicates;
          Alcotest.test_case "peek" `Quick test_peek_does_not_remove;
          Alcotest.test_case "interleaved" `Quick test_interleaved;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [ prop_pop_order_matches_sorted_model; prop_size_tracks ] );
    ]
