let command = [ "sh"; "perfbench/run.sh" ]

let paths = [ "perfbench" ]

(* Passes take 2-4 s, so a run holds ten to twenty of them. *)
let run_seconds = 40

let json () =
  Report.benchmark_json ~command ~paths ~run_seconds
    ~workloads:(List.map (fun (w : Workload.t) -> (w.Workload.name, w.Workload.why)) Workload.all)
