module H = Dq_sim.Event_heap

(* The minimum's payload, removed: what the engine does with the heap
   top. *)
let pop h =
  if H.is_empty h then None
  else begin
    let x = h.H.data.(0) in
    H.remove_min h;
    Some x
  end

let drain h =
  let rec go acc = match pop h with None -> List.rev acc | Some x -> go (x :: acc) in
  go []

let heap_of entries =
  let h = H.create ~dummy:(-1) in
  List.iter (fun ((time, seq), payload) -> H.push h ~time ~seq payload) entries;
  h

let test_empty () =
  let h = H.create ~dummy:0 in
  Alcotest.(check bool) "empty" true (H.is_empty h);
  Alcotest.(check int) "size" 0 (H.size h);
  Alcotest.check_raises "remove_min on empty"
    (Invalid_argument "Event_heap.remove_min: empty heap") (fun () -> H.remove_min h)

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
  Alcotest.(check int) "minimum in cell 0" 9 h.H.data.(0);
  Alcotest.(check (float 0.)) "its time" 2. h.H.times.(0);
  Alcotest.(check int) "size unchanged" 1 (H.size h)

let test_interleaved () =
  let h = H.create ~dummy:(-1) in
  H.push h ~time:3. ~seq:0 3;
  H.push h ~time:1. ~seq:1 1;
  Alcotest.(check (option int)) "pop 1" (Some 1) (pop h);
  H.push h ~time:0.5 ~seq:2 0;
  H.push h ~time:2. ~seq:3 2;
  Alcotest.(check (option int)) "pop 0" (Some 0) (pop h);
  Alcotest.(check (option int)) "pop 2" (Some 2) (pop h);
  Alcotest.(check (option int)) "pop 3" (Some 3) (pop h);
  Alcotest.(check (option int)) "drained" None (pop h)

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
        match pop h with
        | None -> if k <> 0 then ok := false
        | Some _ ->
          if H.size h <> k - 1 then ok := false;
          pop_all (k - 1)
      in
      pop_all n;
      !ok)

(* {2 Sorted runs} *)

let consume r =
  let rec go acc =
    if r.H.pos = r.H.stop then List.rev acc
    else begin
      let x = r.H.r_data.(r.H.pos) in
      H.drop_head r;
      go (x :: acc)
    end
  in
  go []

let load r entries =
  let a = Array.of_list entries in
  H.load_run r
    ~times:(Array.map (fun ((time, _), _) -> time) a)
    ~seqs:(Array.map (fun ((_, seq), _) -> seq) a)
    ~data:(Array.map snd a) ~len:(Array.length a)

let test_run_sorts_a_slot () =
  let r = H.create_run ~dummy:(-1) in
  (* a promoted group then later direct adds, as a wheel slot holds them *)
  load r [ ((5.5, 2), 2); ((5.1, 7), 1); ((5.5, 9), 3); ((5.0, 11), 0); ((5.5, 12), 4) ];
  Alcotest.(check int) "length" 5 (r.H.stop - r.H.pos);
  Alcotest.(check (list int)) "by (time, seq)" [ 0; 1; 2; 3; 4 ] (consume r);
  Alcotest.check_raises "consumed" (Invalid_argument "Event_heap.drop_head: run consumed")
    (fun () -> H.drop_head r)

let test_run_reload () =
  let r = H.create_run ~dummy:(-1) in
  load r [ ((1., 0), 10); ((2., 1), 20) ];
  Alcotest.check_raises "reload before consumed"
    (Invalid_argument "Event_heap.load_run: run not consumed") (fun () -> load r [ ((3., 2), 30) ]);
  Alcotest.(check (list int)) "first batch" [ 10; 20 ] (consume r);
  (* a larger batch regrows the buffers *)
  let big = List.init 40 (fun i -> ((float_of_int (40 - i), i), 40 - i)) in
  load r big;
  Alcotest.(check (list int)) "second batch" (List.init 40 (fun i -> i + 1)) (consume r);
  Alcotest.(check bool) "consumed cells hold the dummy" true
    (Array.for_all (fun x -> x = -1) r.H.r_data)

let prop_run_matches_sorted_model =
  QCheck.Test.make ~name:"run consumes in sorted (time, seq) order" ~count:300
    QCheck.(list (int_range 0 12))
    (fun raw ->
      let entries = List.mapi (fun i t -> ((float_of_int t /. 4., (i * 7) mod 101), i)) raw in
      let expected =
        List.stable_sort
          (fun ((t1, s1), _) ((t2, s2), _) ->
            let c = Float.compare t1 t2 in
            if c <> 0 then c else Int.compare s1 s2)
          entries
        |> List.map snd
      in
      let r = H.create_run ~dummy:(-1) in
      load r entries;
      consume r = expected)

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
          Alcotest.test_case "run sorts a slot" `Quick test_run_sorts_a_slot;
          Alcotest.test_case "run reload" `Quick test_run_reload;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [ prop_pop_order_matches_sorted_model; prop_size_tracks; prop_run_matches_sorted_model ] );
    ]
