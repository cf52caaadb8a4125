module Stats = Dq_util.Stats
module Driver = Dq_harness.Driver
module Staleness = Dq_harness.Staleness
module Aoi = Dq_telemetry.Aoi
module Ju = Dq_telemetry.Json_util

(* Schema 4: the self-describing bench-results format.

   {v
   { "schema": 4,
     "generated_by": "dqr bench",
     "kind": "scenario" | "sweep",
     "scenario": { name, version, description, seed, smoke, topology
                   and workload parameters, protocols, sweep axes },
     "results": { "<id>": { ... per-run metrics ... }, ... } }
   v}

   [results] is an object keyed by run id — the protocol name, or
   ["proto@wan=2,w=0.5"] for sweep cells. Every metric is measured in
   virtual time, so the whole document is a pure function of the seed
   and the committed smoke baselines are compared byte for byte. *)

let run_id (o : Scenario.outcome) ~sweep =
  if sweep then Printf.sprintf "%s@wan=%g,w=%g" o.Scenario.protocol o.Scenario.wan_scale o.Scenario.write_ratio
  else o.Scenario.protocol

let add_latency buf name (stats : Stats.t) =
  Printf.ksprintf (Buffer.add_string buf)
    "\"%s\": {\"count\": %d, \"mean\": %s, \"p50\": %s, \"p90\": %s, \"p99\": %s, \"max\": %s}"
    name (Stats.count stats)
    (Ju.num (Stats.mean stats))
    (Ju.num (Stats.percentile stats 50.))
    (Ju.num (Stats.percentile stats 90.))
    (Ju.num (Stats.percentile stats 99.))
    (Ju.num (Stats.max stats))

let add_outcome buf (o : Scenario.outcome) =
  let r = o.Scenario.result in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "      \"protocol\": \"%s\",\n" o.Scenario.protocol;
  add "      \"wan_scale\": %s,\n" (Ju.num o.Scenario.wan_scale);
  add "      \"write_ratio\": %s,\n" (Ju.num o.Scenario.write_ratio);
  add "      \"sim_events\": %d,\n" o.Scenario.sim_events;
  add "      \"issued\": %d,\n" r.Driver.issued;
  add "      \"completed\": %d,\n" r.Driver.completed;
  add "      \"failed\": %d,\n" r.Driver.failed;
  add "      \"gave_up\": %d,\n" r.Driver.gave_up;
  add "      \"violations\": %d,\n" o.Scenario.violations;
  add "      \"elapsed_virtual_ms\": %s,\n" (Ju.num r.Driver.elapsed_ms);
  add "      \"throughput_per_s\": %s,\n" (Ju.num r.Driver.throughput_per_s);
  add "      \"latency_ms\": {";
  add_latency buf "read" r.Driver.read_latency;
  Buffer.add_string buf ", ";
  add_latency buf "write" r.Driver.write_latency;
  Buffer.add_string buf ", ";
  add_latency buf "all" r.Driver.all_latency;
  add "},\n";
  add
    "      \"messages\": {\"remote\": %d, \"per_request\": %s, \"bytes\": %d, \
     \"bytes_per_request\": %s},\n"
    r.Driver.remote_messages
    (Ju.num r.Driver.messages_per_request)
    r.Driver.remote_bytes
    (Ju.num r.Driver.bytes_per_request);
  add "      \"aoi\": %s,\n" (Aoi.to_json o.Scenario.aoi);
  add
    "      \"staleness_oracle\": {\"checked\": %d, \"stale\": %d, \"stale_fraction\": %s, \
     \"mean_behind_ms\": %s, \"max_behind_ms\": %s, \"max_versions_behind\": %d, \
     \"mean_age_ms\": %s, \"max_age_ms\": %s}\n"
    o.Scenario.staleness.Staleness.checked
    (List.length o.Scenario.staleness.Staleness.stale)
    (Ju.num (Staleness.stale_fraction o.Scenario.staleness))
    (Ju.num o.Scenario.staleness.Staleness.mean_behind_ms)
    (Ju.num o.Scenario.staleness.Staleness.max_behind_ms)
    o.Scenario.staleness.Staleness.max_versions_behind
    (Ju.num o.Scenario.age.Staleness.mean_age_ms)
    (Ju.num o.Scenario.age.Staleness.max_age_ms);
  add "    }"

let render ?sweep_axes ~smoke ~seed (scenario : Scenario.t) (outcomes : Scenario.outcome list) =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let sweep = Option.is_some sweep_axes in
  add "{\n";
  add "  \"schema\": 4,\n";
  add "  \"generated_by\": \"dqr bench\",\n";
  add "  \"kind\": \"%s\",\n" (if sweep then "sweep" else "scenario");
  add "  \"scenario\": {\n";
  add "    \"name\": \"%s\",\n" (Ju.escape scenario.Scenario.name);
  add "    \"version\": %d,\n" scenario.Scenario.version;
  add "    \"description\": \"%s\",\n" (Ju.escape scenario.Scenario.description);
  add "    \"seed\": %Ld,\n" seed;
  add "    \"smoke\": %b,\n" smoke;
  add "    \"n_servers\": %d,\n" scenario.Scenario.n_servers;
  add "    \"n_clients\": %d,\n" scenario.Scenario.n_clients;
  add "    \"ops_per_client\": %d,\n"
    (if smoke then scenario.Scenario.smoke_ops else scenario.Scenario.ops_per_client);
  add "    \"write_ratio\": %s,\n" (Ju.num scenario.Scenario.spec.Dq_workload.Spec.write_ratio);
  add "    \"locality\": %s,\n" (Ju.num scenario.Scenario.spec.Dq_workload.Spec.locality);
  add "    \"value_pad\": %d,\n" scenario.Scenario.value_pad;
  add "    \"wan_scale\": %s,\n" (Ju.num scenario.Scenario.wan_scale);
  (match sweep_axes with
  | Some (wan_scales, write_ratios) ->
    add "    \"sweep\": {\"wan_scales\": [%s], \"write_ratios\": [%s]},\n"
      (String.concat ", " (List.map Ju.num wan_scales))
      (String.concat ", " (List.map Ju.num write_ratios))
  | None -> ());
  add "    \"protocols\": [%s]\n"
    (String.concat ", "
       (List.map (fun p -> Printf.sprintf "\"%s\"" (Ju.escape p)) scenario.Scenario.protocols));
  add "  },\n";
  add "  \"results\": {\n";
  List.iteri
    (fun i o ->
      if i > 0 then add ",\n";
      add "    \"%s\": " (Ju.escape (run_id o ~sweep));
      add_outcome buf o)
    outcomes;
  add "\n  }\n}\n";
  Buffer.contents buf

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc
