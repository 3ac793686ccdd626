#!/usr/bin/env python3
"""Determinism oracle: do two builds produce the same results?

Runs the bench mains of two build trees (typically the parent commit and a
change) with identical arguments and lists every output file that differs
once host-dependent fields are removed:

  * every bench main `--quick --json` at `--sim-threads 1`, plus fig7 and
    fig_shard_scaling at `--sim-threads 8`;
  * `--quick --trace <jsonl> --metrics <json>` for fig7, fig9b, fig10 and
    table1.

Suite and metrics JSON are compared after dropping every `host_*` metric and
`meta.git_describe`; trace JSONL is compared byte for byte. A refactor that
claims to leave results unchanged should report no differing file.

Usage:
  python3 bench/determinism_oracle.py <parent-build> <change-build>
      [--out DIR] [--jobs N] [--only SUBSTR]

Exit status: 0 when every file matches, 1 when any differs or a run fails,
2 on bad invocation.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

# Every bench main that takes the uniform runner CLI, in build order.
SUITES = [
    "fig4_aom_hm_latency",
    "fig5_aom_pk_latency",
    "fig6_aom_throughput",
    "fig7_latency_throughput",
    "fig8_scalability",
    "fig8_10x",
    "fig9_drop_resilience",
    "fig9b_failover",
    "fig10_ycsb",
    "fig_shard_scaling",
    "fig_scenarios",
    "table1_complexity",
    "table2_switch_resources",
    "table3_fpga_resources",
    "ablation_confirm_batching",
    "ablation_signing_ratio",
    "ablation_sync_interval",
    "ablation_batching",
]
PDES_SUITES = ["fig7_latency_throughput", "fig_shard_scaling"]
TRACED = ["fig7_latency_throughput", "fig9b_failover", "fig10_ycsb", "table1_complexity"]


def runs(jobs):
    """(output stem, binary, args, [(kind, file suffix)]) for every run."""
    common = ["--quick", "--jobs", str(jobs)]
    out = []
    for name in SUITES:
        out.append((name + ".simt1", name, common + ["--sim-threads", "1"], [("json", ".json")]))
    for name in PDES_SUITES:
        out.append((name + ".simt8", name, common + ["--sim-threads", "8"], [("json", ".json")]))
    for name in TRACED:
        out.append((name + ".traced", name, common + ["--sim-threads", "1"],
                    [("trace", ".trace.jsonl"), ("metrics", ".metrics.json")]))
    return out


FLAGS = {"json": "--json", "trace": "--trace", "metrics": "--metrics"}


def strip_host(doc):
    """Removes host-dependent fields from a suite or metrics JSON object."""
    meta = doc.get("meta")
    if isinstance(meta, dict):
        meta.pop("git_describe", None)
    for point in doc.get("points", []):
        metrics = point.get("metrics", {})
        for key in [k for k in metrics if k.startswith("host_")]:
            del metrics[key]
    values = doc.get("values")
    if isinstance(values, dict):
        for key in [k for k in values if k.rsplit(".", 1)[-1].startswith("host_")]:
            del values[key]
    return doc


def normalised(path, kind):
    with open(path, "rb") as f:
        data = f.read()
    if kind == "trace":
        return data
    return json.dumps(strip_host(json.loads(data)), sort_keys=True).encode()


def describe_suite_diff(a_path, b_path):
    """Point names and metrics that differ between two suite JSON files."""
    with open(a_path) as f:
        a = strip_host(json.load(f))
    with open(b_path) as f:
        b = strip_host(json.load(f))
    pa = {p["name"]: p for p in a.get("points", [])}
    pb = {p["name"]: p for p in b.get("points", [])}
    lines = []
    for name in sorted(set(pa) ^ set(pb)):
        lines.append("  point only in %s: %s" % ("parent" if name in pa else "change", name))
    for name in sorted(set(pa) & set(pb)):
        ma, mb = pa[name].get("metrics", {}), pb[name].get("metrics", {})
        for metric in sorted(set(ma) | set(mb)):
            if ma.get(metric) != mb.get(metric):
                va = ma.get(metric, {}).get("mean") if metric in ma else "absent"
                vb = mb.get(metric, {}).get("mean") if metric in mb else "absent"
                lines.append("  %s %s: %s -> %s" % (name, metric, va, vb))
    return lines


def run_one(build, out_dir, stem, binary, args, outputs):
    exe = os.path.join(build, "bench", binary)
    cmd = [exe] + args
    paths = {}
    for kind, suffix in outputs:
        paths[kind] = os.path.join(out_dir, stem + suffix)
        cmd += [FLAGS[kind], paths[kind]]
    with open(os.path.join(out_dir, stem + ".log"), "w") as log:
        rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=out_dir)
    return rc, paths


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_build")
    ap.add_argument("change_build")
    ap.add_argument("--out", help="output directory (default: a new temp dir)")
    ap.add_argument("--jobs", type=int, default=1, help="--jobs for every bench main")
    ap.add_argument("--only", default="", help="run only outputs whose stem contains this")
    opt = ap.parse_args()

    for build in (opt.parent_build, opt.change_build):
        if not os.path.isdir(os.path.join(build, "bench")):
            print("no bench/ directory under %s" % build, file=sys.stderr)
            return 2
    out = opt.out or tempfile.mkdtemp(prefix="determinism_oracle.")
    dirs = {side: os.path.join(out, side) for side in ("parent", "change")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)

    differ = []
    failed = []
    checked = 0
    for stem, binary, args, outputs in runs(opt.jobs):
        if opt.only not in stem:
            continue
        results = {}
        for side, build in (("parent", opt.parent_build), ("change", opt.change_build)):
            results[side] = run_one(build, dirs[side], stem, binary, args, outputs)
        if any(rc != 0 for rc, _ in results.values()):
            failed.append("%s (exit %s)" % (stem, "/".join(str(rc) for rc, _ in results.values())))
            print("FAIL  %s" % stem, flush=True)
            continue
        for kind, _ in outputs:
            a, b = results["parent"][1][kind], results["change"][1][kind]
            checked += 1
            if normalised(a, kind) == normalised(b, kind):
                print("same  %s" % os.path.basename(b), flush=True)
                continue
            differ.append(os.path.basename(b))
            print("DIFF  %s" % os.path.basename(b), flush=True)
            if kind == "json":
                for line in describe_suite_diff(a, b)[:20]:
                    print(line)

    print("\n%d files compared, %d differ, %d runs failed; outputs in %s"
          % (checked, len(differ), len(failed), out))
    for name in differ:
        print("differs: %s" % name)
    for name in failed:
        print("failed:  %s" % name)
    return 1 if differ or failed else 0


if __name__ == "__main__":
    sys.exit(main())
