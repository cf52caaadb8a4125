(* dqr-fuzz - randomized fault-scenario fuzzing of the replication
   protocols. Every scenario is a pure function of its seed; a failure
   report names the seed, which replays the run exactly. *)

module Fuzz = Dq_harness.Fuzz
module Explore = Dq_harness.Explore
module Registry = Dq_harness.Registry
open Cmdliner

let builder_of_name = function
  | "dqvl" -> Some (Registry.dqvl ~volume_lease_ms:3_000. ())
  | "dq-basic" -> Some Registry.dq_basic
  | "majority" -> Some Registry.majority
  | "atomic-majority" -> Some Registry.atomic_majority
  | "dqvl-atomic" -> Some Registry.dqvl_atomic
  | _ -> None

let run_explore runs base_seed =
  let dfs = Explore.explore ~budget:runs Explore.default_scenario in
  Format.printf "schedule DFS: %d runs, %d complete, %d distinct outcomes, %d violations@."
    dfs.Explore.runs dfs.Explore.complete_runs dfs.Explore.distinct_outcomes
    (List.length dfs.Explore.violations);
  let rnd = Explore.explore_random ~runs ~seed:base_seed Explore.default_scenario in
  Format.printf "schedule sampling: %d runs, %d complete, %d distinct outcomes, %d violations@."
    rnd.Explore.runs rnd.Explore.complete_runs rnd.Explore.distinct_outcomes
    (List.length rnd.Explore.violations);
  let all = dfs.Explore.violations @ rnd.Explore.violations in
  List.iter
    (fun (v : Explore.violation) ->
      Format.printf "counterexample schedule [%s]: %s@."
        (String.concat ";" (List.map string_of_int v.Explore.choices))
        v.Explore.detail)
    all;
  exit (if all = [] then 0 else 1)

let fuzz protocol runs base_seed verbose trace_file metrics_file =
  if protocol = "explore" then run_explore runs base_seed;
  match builder_of_name protocol with
  | None ->
    Printf.eprintf
      "unknown protocol %S (dqvl, dq-basic, majority, atomic-majority, dqvl-atomic, explore)\n"
      protocol;
    exit 2
  | Some builder ->
    let seeds = List.init runs (fun i -> Int64.add base_seed (Int64.of_int i)) in
    let trace = Option.map (fun _ -> Dq_telemetry.Trace.create ()) trace_file in
    let metrics = Option.map (fun _ -> Dq_telemetry.Metrics.create ()) metrics_file in
    let instrument i engine =
      let bus = Dq_sim.Engine.telemetry engine in
      Option.iter
        (fun t ->
          Dq_telemetry.Trace.set_process_name t ~pid:i
            (Printf.sprintf "%s seed=%Ld" protocol (Int64.add base_seed (Int64.of_int i)));
          Dq_telemetry.Bus.subscribe bus (Dq_telemetry.Trace.sink ~pid:i t))
        trace;
      Option.iter
        (fun m -> Dq_telemetry.Bus.subscribe bus (Dq_telemetry.Metrics.sink m))
        metrics
    in
    let checked = ref 0 in
    let failures =
      Fuzz.campaign builder ~seeds ~instrument ~on_progress:(fun i outcome ->
          incr checked;
          if verbose then
            Format.printf "[%4d] %a completed=%d failed=%d %s@." i Fuzz.pp_scenario
              outcome.Fuzz.scenario outcome.Fuzz.completed outcome.Fuzz.failed
              (if outcome.Fuzz.violations = [] then "ok" else "VIOLATION")
          else if (i + 1) mod 25 = 0 then Format.printf "%d scenarios checked@." (i + 1))
    in
    let write_outputs () =
      Option.iter
        (fun path ->
          let t = Option.get trace in
          Dq_telemetry.Trace.write_file t path;
          Format.printf "trace written to %s (%d events)@." path
            (Dq_telemetry.Trace.count t))
        trace_file;
      Option.iter
        (fun path ->
          let oc = open_out path in
          output_string oc (Dq_telemetry.Metrics.to_json (Option.get metrics));
          close_out oc;
          Format.printf "metrics written to %s@." path)
        metrics_file
    in
    if failures = [] then begin
      write_outputs ();
      Format.printf "all %d scenarios passed for %s@." !checked protocol;
      exit 0
    end
    else begin
      List.iter
        (fun outcome ->
          let s = outcome.Fuzz.scenario in
          Format.printf "@.counterexample %a:@." Fuzz.pp_scenario s;
          (* The seed and give-up counts on one line: everything needed
             to reproduce and triage from the console output alone. *)
          Format.printf "  seed=%Ld completed=%d failed=%d gave-up=%d@." s.Fuzz.seed
            outcome.Fuzz.completed outcome.Fuzz.failed outcome.Fuzz.gave_up;
          Format.printf "  replay: dqr-fuzz -p %s -n 1 --seed %Ld@." protocol s.Fuzz.seed;
          List.iter (fun v -> Format.printf "  %s@." v) outcome.Fuzz.violations)
        failures;
      write_outputs ();
      exit 1
    end

let cmd =
  let protocol =
    Arg.(value & opt string "dqvl" & info [ "protocol"; "p" ] ~docv:"PROTO" ~doc:"Protocol to fuzz.")
  in
  let runs = Arg.(value & opt int 50 & info [ "runs"; "n" ] ~docv:"N" ~doc:"Scenarios to run.") in
  let base_seed =
    Arg.(value & opt int64 1000L & info [ "seed" ] ~docv:"SEED" ~doc:"First scenario seed.")
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print every scenario.") in
  let trace_file =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace_event JSON timeline of all scenarios to $(docv) (one \
             Perfetto process group per scenario).")
  in
  let metrics_file =
    Arg.(
      value & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Write an aggregated JSON metrics snapshot to $(docv).")
  in
  Cmd.v
    (Cmd.info "dqr-fuzz" ~version:"1.0.0"
       ~doc:"Randomized fault-scenario fuzzing with replayable seeds")
    Term.(const fuzz $ protocol $ runs $ base_seed $ verbose $ trace_file $ metrics_file)

let () = exit (Cmd.eval cmd)
