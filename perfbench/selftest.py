#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/selftest.py

For every workload it checks that
  * the committed seed passes the byte oracle and prints exactly the
    end-to-end metrics BENCHMARK.json lists;
  * the same seed reproduces every virtual-clock metric exactly, even
    with a different --seconds (host time only changes how much extra
    timed work runs, never the seeded quantum the virtual metrics cover);
  * a held-out seed passes the oracle too;
  * the traced run agrees with the untraced one (the benchmark itself
    exits 1 otherwise), prints exactly the per-layer metrics, reports
    zero calls for every layer the workload bypasses, and its layer
    self times add up to the traced window's host time.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
COMMITTED_SEED = 1
HELD_OUT_SEED = 1000003
VIRTUAL = ("write_mibs", "read_mibs", "write_mean_us", "read_mean_us",
           "waf", "write_p50_us", "write_p999_us", "read_p50_us",
           "read_p999_us", "mttr_s", "events", "write_samples",
           "read_samples")
BYPASSED = {
    "raizn_fio": ("mdraid", "engine", "conv", "env", "kv"),
    "kv_mdraid": ("raizn", "engine", "zns"),
    "raid6_degraded": ("raizn", "mdraid", "conv", "env", "kv"),
}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, seed, seconds, trace):
    p = subprocess.run(RUN + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace",
                              str(trace)],
                       cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    # The table lines: "  name  value unit [(not gated)]".
    table = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3 and not line.startswith("=="):
            table[parts[0]] = parts[1]
    return p.returncode, result, table


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    for w in (x["name"] for x in spec["workloads"]):
        rc, res, table = run(w, COMMITTED_SEED, 1, 0)
        check(rc == 0 and res.get("correct") is True and
              res.get("failed") == 0 and res.get("attempted", 0) > 0,
              "%s: seed %d passes the oracle" % (w, COMMITTED_SEED))
        check(list(res.get("metrics", {})) == e2e,
              "%s: prints exactly the end-to-end metrics" % w)

        rc2, _, table2 = run(w, COMMITTED_SEED, 3, 0)
        same = rc2 == 0 and all(table.get(k) == table2.get(k) and
                                k in table for k in VIRTUAL)
        check(same, "%s: seed %d repeats its virtual metrics exactly" %
              (w, COMMITTED_SEED))

        rc, res, _ = run(w, HELD_OUT_SEED, 1, 0)
        check(rc == 0 and res.get("correct") is True and
              res.get("failed") == 0,
              "%s: held-out seed %d passes the oracle" % (w, HELD_OUT_SEED))

        rc, res, _ = run(w, COMMITTED_SEED, 1, 1)
        m = {k: v["value"] for k, v in res.get("metrics", {}).items()}
        check(rc == 0 and res.get("correct") is True,
              "%s: traced run matches the untraced run" % w)
        check(list(m) == layer, "%s: prints exactly the per-layer metrics"
              % w)
        zero = [l for l in BYPASSED[w] if m.get(l + ".calls", 1) != 0]
        check(not zero, "%s: bypassed layers report zero calls %s" %
              (w, zero or ""))
        check(abs(m.get("trace.self_sum_frac", 0) - 1.0) < 1e-6,
              "%s: layer self times add up to the window's host time" % w)
    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
