"""holosim benchmark: CLI workloads timed end to end, with per-layer tracing.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed (mod 2**32) is passed to every
invocation as ``--seed``; the other inputs are fixed per workload in
``bench/workloads.py``.  Every holosim invocation is a fresh
``python3`` process running ``bench/child.py``, which imports
``holosim.cli`` from ``src/`` and calls ``main`` with the workload's
argv, exactly as the console script does.  The program's own defaults
stay in force: no thread-count variable (``HOLOSIM_WORKERS``,
``OPENBLAS_NUM_THREADS``, ...) is set or changed.

A run first spawns import-only processes (the first one warms the
byte-code cache and is not counted), then repeats the workload's round of
invocations, starting another round only while it is predicted to end
within ``--seconds`` of the run's start.  Each invocation's output is checked, and every
invocation of a run, all with the same seed, must give the same output
apart from the ``# generated_at=`` line.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over rounds (``setup_s`` over processes).  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics: span
counts and self times from ``bench/tracer.py``, import times from
``python -X importtime``, and the tracing overhead.  Lines before the
last are a human-readable report, including the environment; the last
line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from workloads import CONFIG, WORKLOADS, CheckFailed, normalized_output

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
SETUP_PROBES = 3          # import-only processes; the first is a warm-up
IMPORTTIME_PROBES = 3
CHILD_TIMEOUT_S = 150
THREAD_ENV_MARKERS = ("THREAD", "WORKERS", "OMP_", "BLAS", "MKL")
COUNTERS = ("propagators.apply_exponential.elems", "cli.to_csv.bytes",
            "estimator.mc_samples")


class Spawner:
    """Starts child processes one at a time and reaps each with its rusage."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.count = 0

    def run(self, argv=(), *, trace=False, env_probe=False, python_flags=()):
        self.count += 1
        report = self.work / f"report-{self.count}.json"
        stdout, stderr = self.work / "stdout.txt", self.work / "stderr.txt"
        cmd = [sys.executable, *python_flags, str(CHILD), "--report", str(report)]
        if trace:
            cmd.append("--trace")
        if env_probe:
            cmd.append("--env")
        if argv:
            cmd += ["--", *argv]
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=self.work,
                                    env=self.env)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall_s = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = {"rc": proc.returncode, "wall_s": wall_s,
                  "rss_mb": usage.ru_maxrss / 1024.0, "stderr": stderr}
        if report.exists():
            result.update(json.loads(report.read_text()))
            report.unlink()
        return result


def _importtime(stderr_path: Path) -> dict:
    """Self import time per package, in seconds, from -X importtime."""
    totals = dict.fromkeys(("numpy", "scipy", "holosim"), 0.0)
    for line in stderr_path.read_text().splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = (part.strip() for part in line[12:].split("|"))
        if not self_us.isdigit():
            continue
        package = name.split(".")[0]
        if package in totals:
            totals[package] += int(self_us) * 1e-6
    return totals


class Run:
    def __init__(self, workload, seed, spawner, trace):
        self.workload = workload
        self.seed = seed
        self.spawner = spawner
        self.trace = trace
        self.config = spawner.work / "holosim.cfg"
        self.config.write_text(CONFIG)
        self.reference = {}
        self.attempted = 0
        self.failed = 0
        self.setup = []
        self.rounds = {False: [], True: []}   # keyed by traced

    def invoke(self, invocation, traced):
        out = self.spawner.work / invocation.out
        if out.exists():
            out.unlink()
        argv = [invocation.mode, "--config", str(self.config),
                "--seed", str(self.seed), "--out", str(out)]
        res = self.spawner.run(argv, trace=traced)
        self.attempted += 1
        try:
            if "compute_s" not in res:
                raise CheckFailed(f"no timing report (exit code {res['rc']})")
            invocation.check(out, res["rc"])
            text = normalized_output(out)
            if self.reference.setdefault(invocation.mode, text) != text:
                raise CheckFailed("output differs from the first invocation "
                                  "with the same seed")
        except (CheckFailed, OSError, ValueError, IndexError) as exc:
            self.failed += 1
            print(f"# FAILED {invocation.mode}: {exc}; stderr tail: "
                  f"{res['stderr'].read_text()[-500:]!r}", file=sys.stderr)
        if "setup_s" in res:
            self.setup.append(res["setup_s"])
        return res

    def round(self, traced):
        """One pass over the workload's invocations; times it if all report."""
        t0 = time.perf_counter()
        results = [self.invoke(inv, traced) for inv in self.workload.invocations]
        if all("compute_s" in r for r in results):
            self.rounds[traced].append({
                "compute_s": sum(r["compute_s"] for r in results),
                "wall_s": sum(r["wall_s"] for r in results),
                "rss_mb": max(r["rss_mb"] for r in results),
                "trace": _merge_traces([r.get("trace") for r in results]),
            })
        return time.perf_counter() - t0

    def measure(self, deadline):
        """Run rounds (alternating untraced/traced when tracing) while the
        next one is predicted to end by ``deadline``; at least one of each."""
        kinds = (False, True) if self.trace else (False,)
        durations = {k: [] for k in kinds}
        i = 0
        while True:
            kind = kinds[i % len(kinds)]
            durations[kind].append(self.round(kind))
            i += 1
            if i < len(kinds):
                continue
            nxt = kinds[i % len(kinds)]
            if time.perf_counter() + statistics.median(durations[nxt]) > deadline:
                return


def _merge_traces(traces):
    traces = [t for t in traces if t]
    if not traces:
        return None
    merged = {"spans": {}, "unique": {}, "counts": {}}
    for t in traces:
        for name, rec in t["spans"].items():
            acc = merged["spans"].setdefault(name, [0, 0.0, 0.0])
            for j, v in enumerate(rec):
                acc[j] += v
        for part in ("unique", "counts"):
            for name, v in t[part].items():
                merged[part][name] = merged[part].get(name, 0) + v
    return merged


def _span_metric(trace, name):
    if name in COUNTERS:
        return trace["counts"].get(name, 0)
    span, _, stat = name.rpartition(".")
    calls, _, self_s = trace["spans"].get(span, (0, 0.0, 0.0))
    if stat == "calls":
        return calls
    if stat == "self_s":
        return self_s
    if stat == "share":
        return self_s / sum(rec[2] for rec in trace["spans"].values())
    if stat == "unique_frac":
        return trace["unique"].get(span, 0) / calls if calls else 0.0
    raise KeyError(f"unknown per-layer metric {name!r}")


def _describe(name, values, unit):
    n = len(values)
    line = (f"# {name}: median={statistics.median(values):.6g} {unit} n={n} "
            f"values=[{', '.join(f'{v:.4g}' for v in values)}]")
    if n >= 11:
        pct = 100 * (n - 10) // n
        line += f" p{pct}={sorted(values)[n - 11]:.6g}"
    else:
        line += " (no percentile with ten samples beyond it)"
    return line


def _environment(env_probe: dict) -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            **env_probe.get("env", {}),
            "thread_env": {k: v for k, v in sorted(os.environ.items())
                           if any(m in k for m in THREAD_ENV_MARKERS)},
            "src_lines": src_lines}


def _end_to_end(run, spec):
    rounds = run.rounds[False]
    series = {"setup_s": run.setup,
              "compute_s": [r["compute_s"] for r in rounds],
              "wall_s": [r["wall_s"] for r in rounds],
              "peak_rss_mb": [r["rss_mb"] for r in rounds]}
    metrics = {}
    for m in spec:
        values = series[m["name"]]
        print(_describe(m["name"], values, m["unit"]))
        metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    return metrics


def _per_layer(run, spec, imports):
    plain = [r["compute_s"] for r in run.rounds[False]]
    traced = run.rounds[True]
    traced_compute = statistics.median(r["compute_s"] for r in traced)
    values = {"trace.compute_s": traced_compute,
              "trace.overhead_frac": traced_compute / statistics.median(plain) - 1.0}
    for pkg in ("numpy", "scipy", "holosim"):
        values[f"import.{pkg}_s"] = statistics.median(t[pkg] for t in imports)
    metrics = {}
    for m in spec:
        name = m["name"]
        if name not in values:
            values[name] = statistics.median(
                _span_metric(r["trace"], name) for r in traced)
        metrics[name] = {"value": values[name], "unit": m["unit"]}
    top = {}
    for r in traced:
        spans = r["trace"]["spans"]
        busy = sum(rec[2] for rec in spans.values())
        for span, (_, _, self_s) in spans.items():
            top[span] = top.get(span, 0.0) + self_s / busy / len(traced)
    print(f"# traced rounds={len(traced)} untraced rounds={len(plain)}, traced "
          f"compute_s={traced_compute:.4g} s; share of summed span self time:")
    for span, share in sorted(top.items(), key=lambda kv: -kv[1])[:12]:
        print(f"#   {share:7.2%}  {span}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + args.seconds

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "holosim" / "cli.py").is_file():
        print(f"no holosim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_build" / "holosim-bench"
    scratch.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        spawner = Spawner(work)
        run = Run(WORKLOADS[args.workload], args.seed % 2 ** 32, spawner,
                  bool(args.trace))
        probes = [spawner.run(env_probe=(i == 0)) for i in range(SETUP_PROBES)]
        if any(p["rc"] != 0 or "setup_s" not in p for p in probes):
            print("cannot import holosim.cli:\n" + probes[-1]["stderr"].read_text(),
                  file=sys.stderr)
            return 2
        print("# env " + json.dumps(_environment(probes[0]), sort_keys=True))
        run.setup += [p["setup_s"] for p in probes[1:]]
        imports = []
        if run.trace:
            for _ in range(IMPORTTIME_PROBES):
                probe = spawner.run(python_flags=("-X", "importtime"))
                imports.append(_importtime(probe["stderr"]))
        run.measure(deadline)
        if not run.rounds[False] or (run.trace and not run.rounds[True]):
            print("no round produced timings; nothing to report", file=sys.stderr)
            return 1
        print(f"# workload={args.workload} seed={args.seed} "
              f"failed_frac={run.failed / run.attempted:.4g} "
              f"({run.failed}/{run.attempted} invocations)")
        if run.trace:
            metrics = _per_layer(run, spec["per_layer"], imports)
        else:
            metrics = _end_to_end(run, spec["end_to_end"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
