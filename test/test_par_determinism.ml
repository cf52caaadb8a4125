(* Determinism regression: for a fixed seed, every experiment sweep must
   produce bit-identical rows whether it runs serially (no pool) or fanned
   across a domain pool of any size. Each run owns its own seeded engine,
   and the pool's map preserves input order, so any divergence here means
   shared mutable state leaked between runs. *)

module E = Dq_harness.Experiment
module Pool = Dq_par.Pool

(* Polymorphic [compare] rather than [=] so a NaN field (a latency mean
   with no samples) still equals itself. *)
let same label a b = Alcotest.(check bool) label true (compare a b = 0)

let test_fig6a_deterministic () =
  let serial = E.fig6a ~ops:30 () in
  Alcotest.(check int) "five protocols" 5 (List.length serial);
  List.iter
    (fun jobs ->
      let par = Pool.with_pool ~jobs (fun pool -> E.fig6a ~pool ~ops:30 ()) in
      same (Printf.sprintf "fig6a serial = fig6a -j %d" jobs) serial par)
    [ 1; 2; 4 ]

let test_ablation_deterministic () =
  let serial = E.ablation_lease_len ~ops:20 () in
  List.iter
    (fun jobs ->
      let par = Pool.with_pool ~jobs (fun pool -> E.ablation_lease_len ~pool ~ops:20 ()) in
      same (Printf.sprintf "ablation_lease_len serial = -j %d" jobs) serial par)
    [ 2; 4 ]

let test_sweep_deterministic () =
  (* A flattened product sweep (points x protocols) must regroup into the
     same per-point rows the serial nested loop produced. *)
  let serial = E.fig6b ~ops:12 ~write_ratios:[ 0.05; 0.5; 0.95 ] () in
  let par =
    Pool.with_pool ~jobs:3 (fun pool ->
        E.fig6b ~pool ~ops:12 ~write_ratios:[ 0.05; 0.5; 0.95 ] ())
  in
  Alcotest.(check int) "three sweep points" 3 (List.length par);
  same "fig6b serial = fig6b -j 3" serial par

let () =
  Alcotest.run "par_determinism"
    [
      ( "determinism",
        [
          Alcotest.test_case "fig6a 1/2/4 domains" `Quick test_fig6a_deterministic;
          Alcotest.test_case "ablation_lease_len 2/4 domains" `Quick
            test_ablation_deterministic;
          Alcotest.test_case "fig6b flattened sweep" `Quick test_sweep_deterministic;
        ] );
    ]
