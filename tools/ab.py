#!/usr/bin/env python3
"""Interleaved A/B of two source trees on the served-query benchmark.

  python3 tools/ab.py --base DIR --change DIR [--workload W]... \\
      [--pairs N] [--seconds S] [--record FILE]
  python3 tools/ab.py --self-test

Each pair i (1-based) runs `python3 perfbench/run.py --workload W --seed i
--seconds S --trace 0` once in each tree, base first in odd pairs and change
first in even ones, so drift on the machine falls on both sides alike. Every
run prints one line with all its end-to-end metrics. Any run whose result has
`correct: false` or `failed > 0`, or that exits non-zero, fails the tool
(exit 1).

Then, per workload and for each end-to-end metric that the base tree's
BENCHMARK.json registers, oriented by its `better`, it prints each side's
median and quartiles, the pairs the change won (ties count for neither) and
a verdict:
  - "no measurable effect": the change's median lies inside the base's
    interquartile range;
  - "better"/"worse" by the relative median difference otherwise. A better
    median is marked "gain" when the change won at least 9 of every 10
    pairs and the medians differ by more than the base's IQR; a worse one is
    marked "past bound" when it exceeds the metric's registered bound.

--record FILE writes the change side as a bench_out.json-format row array
that `uuq_bench_history` splices unchanged: one row per workload and
metric, `{"estimator": "ab[<workload>]", "config": "pr=N,metric=<name>,
unit=<unit>,pairs=<P>,seconds=<S>", "ns_per_op": <change median>,
"speedup": <base median / change median, oriented so > 1 is better>,
"q1": ..., "q3": ..., "won": <pairs won>, "base": [...], "change": [...]}`,
where "base" and "change" hold each side's values in pair order, so a later
rule can re-judge the run pair by pair. The `pr=N` tag comes from a
file named BENCH_PR<N>.json and is left out otherwise. The file is written
only when every run of every workload succeeded.

Only `perfbench/` and `BENCHMARK.json` of each tree are read. Without
--workload, every registered workload runs; --pairs defaults to 10; without
--seconds, runs last BENCHMARK.json's `run_seconds`.
"""

import argparse
import contextlib
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile


class RunFailed(Exception):
    pass


def load_benchmark(tree):
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(tree, workload, seed, seconds):
    """One untraced benchmark run; returns {metric: value}."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    where = "%s %s seed %d" % (tree, workload, seed)
    if not lines:
        raise RunFailed("%s: no output (exit %d)\n%s" %
                        (where, done.returncode, done.stderr[-2000:]))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise RunFailed("%s: last line is not JSON: %r" % (where, lines[-1]))
    if done.returncode != 0 or not result.get("correct") or \
            result.get("failed", 1) != 0:
        raise RunFailed("%s: exit %d, correct=%s, failed=%s" %
                        (where, done.returncode, result.get("correct"),
                         result.get("failed")))
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    """(q1, median, q3), inclusive method; one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(metric, base, change):
    """Summary numbers and the verdict string for one metric."""
    lower = metric["better"] == "lower"
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    won = sum(1 for b, c in zip(base, change)
              if (c < b if lower else c > b))
    if b_q1 <= c_med <= b_q3:
        text = "no measurable effect"
    else:
        rel = (c_med - b_med) / b_med if b_med else float("inf")
        improved = (c_med < b_med) if lower else (c_med > b_med)
        text = "%s by %.1f%%" % ("better" if improved else "worse",
                                 abs(rel) * 100)
        if improved and won * 10 >= 9 * len(base) and \
                abs(c_med - b_med) > b_q3 - b_q1:
            text += ", gain"
        if not improved and abs(rel) > metric["bound"]:
            text += ", past bound %g" % metric["bound"]
    return (b_med, b_q1, b_q3), (c_med, c_q1, c_q3), won, text


def print_table(workload, metrics, samples, pairs, seconds):
    """Prints the workload's table; returns its verdicts by metric name."""
    print("\n%s: %d pairs, %g s per run" % (workload, pairs, seconds))
    print("%-16s %-6s %-28s %-28s %-5s %s" %
          ("metric", "better", "base median [q1, q3]",
           "change median [q1, q3]", "won", "verdict"))
    verdicts = {}
    for metric in metrics:
        name = metric["name"]
        b, c, won, text = verdicts[name] = verdict(
            metric, samples["base"][name], samples["change"][name])
        print("%-16s %-6s %-28s %-28s %-5s %s" %
              (name, metric["better"],
               "%.4g [%.4g, %.4g]" % b, "%.4g [%.4g, %.4g]" % c,
               "%d/%d" % (won, pairs), text))
    return verdicts


def record_rows(path, metrics, tables, pairs, seconds):
    """The change side of every table as bench_out.json rows."""
    match = re.match(r"BENCH_PR(\d+)\.json$", os.path.basename(path))
    tags = ["pr=%s" % match.group(1)] if match else []
    rows = []
    for workload, verdicts, samples in tables:
        for metric in metrics:
            name = metric["name"]
            (b_med, _, _), (c_med, c_q1, c_q3), won, _ = verdicts[name]
            if metric["better"] == "lower":
                ratio = b_med / c_med if c_med else None
            else:
                ratio = c_med / b_med if b_med else None
            config = tags + ["metric=%s" % name,
                             "unit=%s" % metric.get("unit", ""),
                             "pairs=%d" % pairs, "seconds=%g" % seconds]
            rows.append({"estimator": "ab[%s]" % workload,
                         "config": ",".join(config), "ns_per_op": c_med,
                         "speedup": ratio, "q1": c_q1, "q3": c_q3,
                         "won": won, "base": samples["base"][name],
                         "change": samples["change"][name]})
    return rows


def write_record(path, rows):
    with open(path, "w") as f:
        f.write("[\n%s\n]\n" %
                ",\n".join("  " + json.dumps(row) for row in rows))


def run_ab(base, change, workloads, pairs, seconds, record=None):
    benchmark = load_benchmark(base)
    metrics = benchmark["end_to_end"]
    if not workloads:
        workloads = [w["name"] for w in benchmark["workloads"]]
    if seconds is None:
        seconds = benchmark["run_seconds"]
    trees = {"base": base, "change": change}
    status = 0
    tables = []
    for workload in workloads:
        samples = {side: {m["name"]: [] for m in metrics} for side in trees}
        try:
            for pair in range(1, pairs + 1):
                order = ["base", "change"] if pair % 2 else ["change", "base"]
                for side in order:
                    values = run_once(trees[side], workload, pair, seconds)
                    print("pair %d seed %d %-6s %s  %s" %
                          (pair, pair, side, workload,
                           " ".join("%s=%.6g" % (m["name"], values[m["name"]])
                                    for m in metrics)),
                          flush=True)
                    for m in metrics:
                        samples[side][m["name"]].append(values[m["name"]])
        except (RunFailed, KeyError) as e:
            print("ab.py: FAILED: %s" % e, file=sys.stderr)
            status = 1
            continue
        tables.append((workload, print_table(workload, metrics, samples,
                                             pairs, seconds), samples))
    if record:
        if status == 0:
            write_record(record, record_rows(record, metrics, tables, pairs,
                                             seconds))
        else:
            print("ab.py: not recording %s: a run failed" % record,
                  file=sys.stderr)
    return status


# --------------------------------------------------------------------------
# Self-test: stub trees whose run.py prints canned results.
# --------------------------------------------------------------------------

STUB_RUN_PY = r'''
import json, os, sys
args = sys.argv[1:]
seed = int(args[args.index("--seed") + 1])
workload = args[args.index("--workload") + 1]
tree = os.path.basename(os.getcwd())
with open(os.path.join(os.path.dirname(os.getcwd()), "order.log"), "a") as f:
    f.write("%s %s %d\n" % (tree, workload, seed))
setup = {"base": 1.0, "change": 0.8}.get(tree, 1.0) + 0.01 * seed
latency = 10.0 + (seed % 3)
result = {"correct": tree != "wrong", "attempted": 100,
          "failed": 3 if tree == "shedding" else 0,
          "metrics": {"setup_s": {"value": setup, "unit": "s"},
                      "latency_p50_ms": {"value": latency, "unit": "ms"},
                      "throughput_qps": {"value": 50.0 - seed, "unit": "1/s"}}}
print("human-readable line")
print(json.dumps(result))
sys.exit(0 if result["correct"] else 1)
'''

STUB_BENCHMARK = {
    "run_seconds": 1,
    "workloads": [{"name": "w1"}, {"name": "w2"}],
    "end_to_end": [
        {"name": "setup_s", "better": "lower", "bound": 0.25},
        {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
        {"name": "throughput_qps", "better": "higher", "bound": 0.01},
    ],
}


def record_checks(path):
    """Checks on the --record file of the stub run (4 pairs, 1 s)."""
    with open(path) as f:
        content = f.read()
    rows = json.loads(content)
    by_key = {(r["estimator"], r["config"].split(",")[1]): r for r in rows}
    setup = by_key.get(("ab[w1]", "metric=setup_s"), {})
    qps = by_key.get(("ab[w2]", "metric=throughput_qps"), {})
    # The stub's change setup_s is 0.8 + 0.01·seed over seeds 1..4, and
    # throughput 50 − seed on both sides.
    def close(got, want):
        return isinstance(got, list) and len(got) == len(want) and \
            all(abs(g - w) < 1e-9 for g, w in zip(got, want))
    return [
        ("record: one row per workload and metric", len(rows) == 6 and
         len(by_key) == 6),
        ("record: an array uuq_bench_history splices",
         content.lstrip().startswith("[") and
         content.rstrip().endswith("]")),
        ("record: pr tag from the file name, then the run's tags",
         setup.get("config") ==
         "pr=7,metric=setup_s,unit=,pairs=4,seconds=1"),
        ("record: change median, quartiles and pairs won",
         abs(setup.get("ns_per_op", 0) - 0.825) < 1e-9 and
         abs(setup.get("q1", 0) - 0.8175) < 1e-9 and
         abs(setup.get("q3", 0) - 0.8325) < 1e-9 and setup.get("won") == 4),
        ("record: speedup oriented so > 1 is better",
         abs(setup.get("speedup", 0) - 1.025 / 0.825) < 1e-9 and
         qps.get("speedup") == 1.0 and qps.get("won") == 0),
        ("record: both sides' values in pair order",
         close(setup.get("base"), [1.01, 1.02, 1.03, 1.04]) and
         close(setup.get("change"), [0.81, 0.82, 0.83, 0.84]) and
         qps.get("base") == qps.get("change") == [49.0, 48.0, 47.0, 46.0]),
    ]


def self_test():
    with tempfile.TemporaryDirectory() as root:
        for tree in ("base", "change", "wrong", "shedding"):
            os.makedirs(os.path.join(root, tree, "perfbench"))
            with open(os.path.join(root, tree, "perfbench", "run.py"),
                      "w") as f:
                f.write(STUB_RUN_PY)
            with open(os.path.join(root, tree, "BENCHMARK.json"), "w") as f:
                json.dump(STUB_BENCHMARK, f)
        base = os.path.join(root, "base")
        record = os.path.join(root, "BENCH_PR7.json")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = run_ab(base, os.path.join(root, "change"), [], 4, None,
                            record)
        text = out.getvalue()
        with open(os.path.join(root, "order.log")) as f:
            order = f.read().split("\n")[:-1]
        expected_order = []
        for workload in ("w1", "w2"):
            for pair in range(1, 5):
                sides = ["base", "change"] if pair % 2 else ["change", "base"]
                expected_order += ["%s %s %d" % (s, workload, pair)
                                   for s in sides]
        rows = {line.split()[0]: line for line in text.splitlines()
                if line.split() and line.split()[0] in
                ("setup_s", "latency_p50_ms", "throughput_qps")}
        checks = [
            ("clean runs pass", status == 0),
            ("pairs alternate order and use seed = pair", order ==
             expected_order),
            ("both workloads reported, run_seconds by default",
             text.count("4 pairs, 1 s per run") == 2),
            ("lower-better gain", "4/4" in rows.get("setup_s", "") and
             "better by 19.5%, gain" in rows.get("setup_s", "")),
            ("identical sides: no measurable effect",
             "no measurable effect" in rows.get("latency_p50_ms", "")),
            ("identical sides: ties win nothing",
             "0/4" in rows.get("latency_p50_ms", "")),
        ]
        # The higher-better orientation and the bound mark, on fixed samples.
        worse = verdict({"better": "higher", "bound": 0.01},
                        [50.0, 50.0, 50.0, 50.0], [45.0, 45.0, 45.0, 45.0])
        checks.append(("higher-better regression past its bound",
                       worse[2] == 0 and
                       worse[3] == "worse by 10.0%, past bound 0.01"))
        checks += record_checks(record)
        for tree, name in (("wrong", "a correct:false run fails the tool"),
                           ("shedding", "a failed > 0 run fails the tool")):
            unrecorded = os.path.join(root, "failed.json")
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                failed = run_ab(base, os.path.join(root, tree), ["w1"], 1, 1,
                                unrecorded)
            checks.append((name, failed == 1))
            checks.append((name + " and records nothing",
                           not os.path.exists(unrecorded)))
    ok = True
    for name, passed in checks:
        print("%-50s %s" % (name, "ok" if passed else "FAILED"))
        ok = ok and passed
    if not ok:
        print(text)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base")
    parser.add_argument("--change")
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--record", metavar="FILE")
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    if opts.self_test:
        return self_test()
    if not opts.base or not opts.change:
        parser.error("--base and --change are required")
    if opts.pairs < 1:
        parser.error("--pairs must be at least 1")
    return run_ab(os.path.abspath(opts.base), os.path.abspath(opts.change),
                  opts.workload, opts.pairs, opts.seconds, opts.record)


if __name__ == "__main__":
    sys.exit(main())
