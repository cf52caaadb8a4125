#!/usr/bin/env python3
"""Validate schema-3 bench result JSONs from `dqr bench run` /
`dqr bench sweep`.

Checks the self-describing scenario block, per-run metric structure
(latency quantiles, message accounting, AoI and staleness blocks), and
the cross-check invariant that the online AoI sink and the offline
staleness oracle agree on their exactly-countable fields.

Usage: validate_bench.py RESULTS.json [...]
Exits non-zero with one message per problem.
"""

import json
import sys

errors = []


def err(path, msg):
    errors.append(f"{path}: {msg}")


def require(doc, path, key, types):
    if key not in doc:
        err(path, f"missing key '{key}'")
        return None
    v = doc[key]
    if not isinstance(v, types):
        names = "/".join(t.__name__ for t in types) if isinstance(types, tuple) else types.__name__
        err(path, f"'{key}' should be {names}, got {type(v).__name__}")
        return None
    return v


NUM = (int, float)

LATENCY_KINDS = ("read", "write", "all")
QUANTILES = ("mean", "p50", "p90", "p99", "max")
AOI_SCALARS = (
    "keys", "reads_checked", "stale_reads", "stale_fraction",
    "mean_behind_ms", "max_behind_ms", "max_versions_behind",
    "mean_read_age_ms", "max_read_age_ms", "time_avg_age_ms", "peak_age_ms",
)
AOI_HISTOGRAMS = ("read_age_ms", "behind_ms", "versions_behind")
ORACLE_KEYS = (
    "checked", "stale", "stale_fraction", "mean_behind_ms",
    "max_behind_ms", "max_versions_behind", "mean_age_ms", "max_age_ms",
)


def validate_result(path, run_id, kind, protocols, run):
    protocol = require(run, path, "protocol", str)
    if protocols is not None and protocol is not None and protocol not in protocols:
        err(path, f"protocol '{protocol}' not in the scenario's protocol list")
    if kind == "scenario" and protocol is not None and run_id != protocol:
        err(path, f"run id '{run_id}' should equal the protocol name in a scenario file")
    require(run, path, "wan_scale", NUM)
    require(run, path, "write_ratio", NUM)

    wall = require(run, path, "wall", (dict, type(None)))
    if isinstance(wall, dict):
        require(wall, f"{path}/wall", "wall_s", NUM)
        require(wall, f"{path}/wall", "events_per_sec", NUM)

    for key in ("sim_events", "issued", "completed", "failed", "gave_up", "violations"):
        require(run, path, key, int)
    issued, completed = run.get("issued"), run.get("completed")
    if isinstance(issued, int) and isinstance(completed, int) and completed > issued:
        err(path, f"completed ({completed}) exceeds issued ({issued})")
    require(run, path, "elapsed_virtual_ms", NUM)
    require(run, path, "throughput_per_s", NUM)

    latency = require(run, path, "latency_ms", dict)
    if latency is not None:
        for lk in LATENCY_KINDS:
            block = require(latency, f"{path}/latency_ms", lk, dict)
            if block is None:
                continue
            p = f"{path}/latency_ms/{lk}"
            require(block, p, "count", int)
            for q in QUANTILES:
                require(block, p, q, NUM)

    messages = require(run, path, "messages", dict)
    if messages is not None:
        p = f"{path}/messages"
        require(messages, p, "remote", int)
        require(messages, p, "bytes", int)
        require(messages, p, "per_request", NUM)
        require(messages, p, "bytes_per_request", NUM)

    aoi = require(run, path, "aoi", dict)
    if aoi is not None:
        p = f"{path}/aoi"
        for key in AOI_SCALARS:
            require(aoi, p, key, NUM)
        for key in AOI_HISTOGRAMS:
            hist = require(aoi, p, key, dict)
            if hist is None:
                continue
            hp = f"{p}/{key}"
            count = require(hist, hp, "count", int)
            for q in ("p50", "p90", "p99"):
                # Quantiles are null exactly when the histogram is empty.
                v = require(hist, hp, q, (int, float, type(None)))
                if count and v is None:
                    err(hp, f"'{q}' is null on a non-empty histogram")
            buckets = require(hist, hp, "buckets", dict)
            if buckets is not None:
                if not all(isinstance(c, int) for c in buckets.values()):
                    err(hp, "bucket counts must be integers")
                if count is not None and sum(buckets.values()) != count:
                    err(hp, "bucket counts do not sum to 'count'")

    oracle = require(run, path, "staleness_oracle", dict)
    if oracle is not None:
        p = f"{path}/staleness_oracle"
        for key in ORACLE_KEYS:
            require(oracle, p, key, NUM)

    # The cross-check invariant, visible in the document itself: the
    # online sink and the offline oracle were computed from one run and
    # must agree on everything exactly countable.
    if aoi is not None and oracle is not None:
        for a, o in (("reads_checked", "checked"), ("stale_reads", "stale"),
                     ("max_versions_behind", "max_versions_behind")):
            if a in aoi and o in oracle and aoi[a] != oracle[o]:
                err(path, f"aoi.{a} ({aoi[a]}) != staleness_oracle.{o} ({oracle[o]})")


def validate_v3(doc, path):
    require(doc, path, "generated_by", str)
    kind = require(doc, path, "kind", str)
    if kind is not None and kind not in ("scenario", "sweep"):
        err(path, f"kind '{kind}', expected 'scenario' or 'sweep'")

    scenario = require(doc, path, "scenario", dict)
    protocols = None
    if scenario is not None:
        p = f"{path}/scenario"
        require(scenario, p, "name", str)
        require(scenario, p, "version", int)
        require(scenario, p, "seed", int)
        require(scenario, p, "smoke", bool)
        for key in ("n_servers", "n_clients", "ops_per_client", "value_pad"):
            require(scenario, p, key, int)
        for key in ("write_ratio", "locality", "wan_scale"):
            require(scenario, p, key, NUM)
        protocols = require(scenario, p, "protocols", list)
        if kind == "sweep":
            sweep = require(scenario, p, "sweep", dict)
            if sweep is not None:
                for key in ("wan_scales", "write_ratios"):
                    axis = require(sweep, f"{p}/sweep", key, list)
                    if axis is not None and not axis:
                        err(f"{p}/sweep", f"'{key}' is empty in a sweep file")

    band = require(doc, path, "noise_band", NUM)
    if band is not None and not 0 < band < 1:
        err(path, f"noise_band {band} outside (0, 1)")

    results = require(doc, path, "results", dict)
    if results is not None:
        if not results:
            err(path, "'results' is empty")
        for run_id, run in results.items():
            p = f"{path}/results/{run_id}"
            if not isinstance(run, dict):
                err(p, "not an object")
                continue
            validate_result(p, run_id, kind, protocols, run)


def validate(fname):
    path = fname
    try:
        with open(fname) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        err(path, str(e))
        return

    schema = require(doc, path, "schema", int)
    if schema is None:
        return
    if schema != 3:
        err(path, f"schema {schema!r}, expected 3")
        return
    validate_v3(doc, path)


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for fname in argv[1:]:
        validate(fname)
    if errors:
        for e in errors:
            print(e, file=sys.stderr)
        return 1
    print(f"validate_bench: {len(argv) - 1} file(s) OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
