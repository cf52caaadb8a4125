open Dq_storage

let test_key_accessors () =
  let k = Key.make ~volume:2 ~index:7 in
  Alcotest.(check int) "volume" 2 (Key.volume k);
  Alcotest.(check int) "index" 7 (Key.index k);
  Alcotest.(check string) "to_string" "v2/o7" (Key.to_string k)

let test_key_equality () =
  let a = Key.make ~volume:1 ~index:2 in
  let b = Key.make ~volume:1 ~index:2 in
  let c = Key.make ~volume:2 ~index:1 in
  Alcotest.(check bool) "equal" true (Key.equal a b);
  Alcotest.(check bool) "not equal" false (Key.equal a c);
  Alcotest.(check int) "same hash" (Key.hash a) (Key.hash b)

let test_key_ordering () =
  let k v i = Key.make ~volume:v ~index:i in
  Alcotest.(check bool) "volume major" true (Key.compare (k 1 9) (k 2 0) < 0);
  Alcotest.(check bool) "index minor" true (Key.compare (k 1 1) (k 1 2) < 0);
  Alcotest.(check int) "reflexive" 0 (Key.compare (k 3 3) (k 3 3))

let test_key_validation () =
  Alcotest.(check bool) "negative rejected" true
    (try
       ignore (Key.make ~volume:(-1) ~index:0);
       false
     with Invalid_argument _ -> true)

let test_lc_total_order () =
  let a = Lc.make ~count:1 ~node:0 in
  let b = Lc.make ~count:1 ~node:1 in
  let c = Lc.make ~count:2 ~node:0 in
  Alcotest.(check bool) "count major" true Lc.(a < c);
  Alcotest.(check bool) "node tie-break" true Lc.(a < b);
  Alcotest.(check bool) "b < c" true Lc.(b < c);
  Alcotest.(check bool) "zero smallest" true Lc.(Lc.zero < a)

let test_lc_succ () =
  let a = Lc.make ~count:3 ~node:5 in
  let s = Lc.succ a ~node:1 in
  Alcotest.(check bool) "succ greater" true Lc.(s > a);
  Alcotest.(check int) "count bumped" 4 s.Lc.count;
  Alcotest.(check int) "node tagged" 1 s.Lc.node

let test_lc_succ_concurrent_distinct () =
  (* Two nodes advancing the same clock produce distinct, ordered stamps. *)
  let base = Lc.make ~count:7 ~node:0 in
  let s1 = Lc.succ base ~node:1 and s2 = Lc.succ base ~node:2 in
  Alcotest.(check bool) "distinct" false (Lc.equal s1 s2);
  Alcotest.(check bool) "ordered" true Lc.(s1 < s2)

let test_lc_max () =
  let a = Lc.make ~count:1 ~node:9 in
  let b = Lc.make ~count:2 ~node:0 in
  Alcotest.(check bool) "max picks larger" true (Lc.equal (Lc.max a b) b);
  Alcotest.(check bool) "commutative" true (Lc.equal (Lc.max a b) (Lc.max b a))

let test_versioned () =
  let v1 = Versioned.make ~value:"x" ~lc:(Lc.make ~count:1 ~node:0) in
  let v2 = Versioned.make ~value:"y" ~lc:(Lc.make ~count:2 ~node:0) in
  Alcotest.(check string) "newer wins" "y" (Versioned.newer v1 v2).Versioned.value;
  Alcotest.(check string) "order irrelevant" "y" (Versioned.newer v2 v1).Versioned.value;
  Alcotest.(check string) "initial empty" "" Versioned.initial.Versioned.value;
  Alcotest.(check bool) "initial at zero" true (Lc.equal Versioned.initial.Versioned.lc Lc.zero)

let test_obj_map_default_materializes () =
  let m = Obj_map.of_int_default ~default:(fun k -> ref (k * 10)) in
  let r = Obj_map.get m 3 in
  Alcotest.(check int) "default computed" 30 !r;
  r := 99;
  Alcotest.(check int) "entry remembered" 99 !(Obj_map.get m 3);
  Alcotest.(check int) "length" 1 (Obj_map.length m)

let test_obj_map_find_opt_no_materialize () =
  let m = Obj_map.of_int_default ~default:(fun _ -> 0) in
  Alcotest.(check (option int)) "absent" None (Obj_map.find_opt m 5);
  Alcotest.(check int) "still empty" 0 (Obj_map.length m)

let test_obj_map_set_overwrites () =
  let m = Obj_map.of_int_default ~default:(fun _ -> 0) in
  Obj_map.set m 1 10;
  Obj_map.set m 1 20;
  Alcotest.(check (option int)) "overwritten" (Some 20) (Obj_map.find_opt m 1);
  Alcotest.(check int) "no duplicate" 1 (Obj_map.length m)

let test_obj_map_growth () =
  let m = Obj_map.of_int_default ~default:(fun k -> k) in
  for k = 0 to 999 do
    ignore (Obj_map.get m k)
  done;
  Alcotest.(check int) "all present" 1000 (Obj_map.length m);
  for k = 0 to 999 do
    Alcotest.(check (option int)) "value" (Some k) (Obj_map.find_opt m k)
  done

let test_obj_map_fold_iter () =
  let m = Obj_map.of_int_default ~default:(fun k -> k * 2) in
  List.iter (fun k -> ignore (Obj_map.get m k)) [ 1; 2; 3 ];
  let total = Obj_map.fold m ~init:0 ~f:(fun _ v acc -> acc + v) in
  Alcotest.(check int) "fold" 12 total;
  let count = ref 0 in
  Obj_map.iter m (fun _ _ -> incr count);
  Alcotest.(check int) "iter" 3 !count

let test_obj_map_clear () =
  let m = Obj_map.of_int_default ~default:(fun _ -> 0) in
  ignore (Obj_map.get m 1);
  Obj_map.clear m;
  Alcotest.(check int) "cleared" 0 (Obj_map.length m)

let test_obj_map_key_keys () =
  let m = Obj_map.of_key_default ~default:(fun k -> Key.index k) in
  let k1 = Key.make ~volume:0 ~index:5 in
  let k2 = Key.make ~volume:1 ~index:5 in
  Alcotest.(check int) "k1" 5 (Obj_map.get m k1);
  Obj_map.set m k2 99;
  Alcotest.(check (option int)) "k2 distinct" (Some 99) (Obj_map.find_opt m k2);
  Alcotest.(check (option int)) "k1 unaffected" (Some 5) (Obj_map.find_opt m k1)

(* Model-based: Obj_map behaves like Hashtbl under a random op sequence. *)
let prop_obj_map_model =
  let op_gen =
    QCheck.Gen.(
      pair (int_range 0 20) (oneofl [ `Get; `Set 1; `Set 2; `Find ]))
  in
  QCheck.Test.make ~name:"obj_map matches hashtbl model" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 100) op_gen))
    (fun ops ->
      let m = Obj_map.of_int_default ~default:(fun k -> k * 7) in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (k, op) ->
          match op with
          | `Get ->
            let v = Obj_map.get m k in
            let expected =
              match Hashtbl.find_opt model k with
              | Some v -> v
              | None ->
                Hashtbl.replace model k (k * 7);
                k * 7
            in
            v = expected
          | `Set v ->
            Obj_map.set m k v;
            Hashtbl.replace model k v;
            true
          | `Find -> Obj_map.find_opt m k = Hashtbl.find_opt model k)
        ops)

let prop_lc_max_assoc =
  QCheck.Test.make ~name:"lc max is associative and commutative" ~count:300
    QCheck.(triple (pair small_nat small_nat) (pair small_nat small_nat) (pair small_nat small_nat))
    (fun ((c1, n1), (c2, n2), (c3, n3)) ->
      let a = Lc.make ~count:c1 ~node:n1 in
      let b = Lc.make ~count:c2 ~node:n2 in
      let c = Lc.make ~count:c3 ~node:n3 in
      Lc.equal (Lc.max a (Lc.max b c)) (Lc.max (Lc.max a b) c)
      && Lc.equal (Lc.max a b) (Lc.max b a))

let prop_key_to_string_matches_pp =
  QCheck.Test.make ~name:"key to_string equals its pp rendering" ~count:500
    QCheck.(pair (oneof [ small_nat; int_range 0 max_int ]) (oneof [ small_nat; int_range 0 max_int ]))
    (fun (volume, index) ->
      let k = Key.make ~volume ~index in
      String.equal (Key.to_string k) (Format.asprintf "%a" Key.pp k))

let () =
  Alcotest.run "storage"
    [
      ( "key",
        [
          Alcotest.test_case "accessors" `Quick test_key_accessors;
          Alcotest.test_case "equality" `Quick test_key_equality;
          Alcotest.test_case "ordering" `Quick test_key_ordering;
          Alcotest.test_case "validation" `Quick test_key_validation;
        ] );
      ( "lc",
        [
          Alcotest.test_case "total order" `Quick test_lc_total_order;
          Alcotest.test_case "succ" `Quick test_lc_succ;
          Alcotest.test_case "concurrent succ" `Quick test_lc_succ_concurrent_distinct;
          Alcotest.test_case "max" `Quick test_lc_max;
        ] );
      ("versioned", [ Alcotest.test_case "newer" `Quick test_versioned ]);
      ( "obj_map",
        [
          Alcotest.test_case "default materializes" `Quick test_obj_map_default_materializes;
          Alcotest.test_case "find_opt" `Quick test_obj_map_find_opt_no_materialize;
          Alcotest.test_case "set overwrites" `Quick test_obj_map_set_overwrites;
          Alcotest.test_case "growth" `Quick test_obj_map_growth;
          Alcotest.test_case "fold iter" `Quick test_obj_map_fold_iter;
          Alcotest.test_case "clear" `Quick test_obj_map_clear;
          Alcotest.test_case "composite keys" `Quick test_obj_map_key_keys;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [ prop_obj_map_model; prop_lc_max_assoc; prop_key_to_string_matches_pp ] );
    ]
