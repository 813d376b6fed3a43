"""End-to-end and per-layer benchmark of the ``occert certify`` CLI.

    python3 perfbench/run.py --workload survey --seed 7 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run from the repository root; the program is run from ``src/`` as
checked out.  Each measured process is a fresh ``occert certify`` run
(``child.py`` around ``occert.cli.main``) with ``OCCERT_THREADS=1``.
Processes are launched back to back for about ``--seconds`` seconds,
always on the same inputs, and every report they write is checked
(``checks.py``) and compared byte for byte, minus ``meta``.

On a host that shares its cores with other tenants, such as a 2-CPU cloud
VM, speed drifts by up to 2x over minutes, so raw times of runs minutes
apart do not repeat.
Before and after each measured process the benchmark therefore launches
a reference probe: a fixed task (``child.py reference``) that no change
to occert can affect.  Each time is scaled to a host on which that probe
takes ``REF_NOMINAL_S``, scaled = raw * REF_NOMINAL_S / (mean of the two
probes), and the end-to-end metrics are medians of scaled times.  A change to occert moves
scaled and raw times alike; the raw medians are printed and kept in the
``--out`` result.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced processes alternate and the per-layer metrics of
the traced ones are printed (``tracing.py``).  The last stdout line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; ``--out`` also writes the full result with its environment
stamp, which ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"

CONFORMAL = {"family": "conformal",
             "f": {"type": "ambient_linear", "coeffs": [0.3, 0, 0, 0, 0, 0, 0]}}
ELLIPSOID = {"family": "ellipsoid", "axes": [0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 3.0]}

PROBES = 8                # fewest setup probes per run
REF_NOMINAL_S = 0.3       # reference probe time of the nominal host
MAX_ITER = 80             # SearchConfig.max_iter; the CLI does not change it
COVERAGE_GATE = 0.95      # top-level spans must cover this share of cli.main


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict
    checks: str
    points: int
    multistarts: int
    verdict: str              # expected verdict of every point
    p_status: tuple           # allowed star-Ricci statuses of a point
    exit_code: int
    richardson: bool = False


# Why each workload exists is in BENCHMARK.json.  Both do a fixed amount
# of work per point, so the work of a process does not depend on the seed.
# On refute, pinching fails at every point, but eight starts may miss the
# star-Ricci witness at a point, so "unknown" is allowed there; every
# witness found is re-verified.  Refute uses fourth-order differences: with
# central ones this strongly curved ellipsoid fails the curvature-identity
# check (100 h^2) at some sampled points.
WORKLOADS = {w.name: w for w in (
    Workload("survey", CONFORMAL, "bhl,p_sufficient", 100, 64,
             "unknown", ("unknown",), 4),
    Workload("refute", ELLIPSOID, "bhl,p_sufficient,p_refute", 2, 8,
             "refuted", ("refuted", "unknown"), 3, richardson=True),
)}


@dataclass
class Process:
    mode: str
    wall_s: float
    setup_s: float
    rss_mb: float
    exit_code: int
    sidecar: dict
    scale: float = 1.0        # REF_NOMINAL_S / the reference probes around it


class Bench:
    """Launches measured processes in a scratch directory of the checkout."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        self.spec_path = self.tmp / "spec.json"
        self.spec_path.write_text(json.dumps(workload.spec))
        self.report_path = self.tmp / "report.json"
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, OCCERT_THREADS="1",
                        PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.launches = 0
        self.last_reference = None

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def launch(self, mode: str) -> Process:
        self.launches += 1
        sidecar = self.tmp / ("sidecar-%d.json" % self.launches)
        args = [sys.executable, str(CHILD), str(sidecar), mode]
        if mode in ("plain", "traced"):
            wl = self.workload
            args += ["--", "certify", "--spec", str(self.spec_path),
                     "--points", str(wl.points), "--seed", str(self.seed),
                     "--multistarts", str(wl.multistarts), "--checks", wl.checks,
                     "--out", str(self.report_path)]
            if wl.richardson:
                args.append("--richardson")
        with open(self.tmp / "stderr.txt", "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(args, env=self.env, cwd=self.tmp,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            info = json.loads(sidecar.read_text())
            sidecar.unlink()
        except (OSError, ValueError):
            info = {}
        if mode in ("reference", "setup") and proc.returncode != 0:
            raise RuntimeError("%s probe failed:\n%s" % (
                mode, (self.tmp / "stderr.txt").read_text()))
        setup = info["setup_end"] - start if "setup_end" in info else float("nan")
        return Process(mode, end - start, setup, usage.ru_maxrss / 1024.0,
                       proc.returncode, info)

    def scaled(self, modes: list[str]) -> list[Process]:
        """Launch ``modes`` in turn between two reference probes, each
        scaled by the probes' mean time."""
        if self.last_reference is None:
            self.last_reference = self.launch("reference").wall_s
        procs = [self.launch(mode) for mode in modes]
        after = self.launch("reference").wall_s
        scale = 2 * REF_NOMINAL_S / (self.last_reference + after)
        self.last_reference = after
        for proc in procs:
            proc.scale = scale
        return procs


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Measure one workload; the result with samples, problems and counts."""
    from checks import canonical, check_report

    bench = Bench(workload, seed)
    try:
        env = bench.launch("setup").sidecar["env"]       # warm-up, not counted
        modes = ("plain", "traced") if trace else ("plain",)
        probes, processes, problems, failed = [], [], [], 0
        first_report = report_bytes = threads = None
        begin = time.monotonic()
        while True:
            probe, proc = bench.scaled(
                ["setup", modes[len(processes) % len(modes)]])
            probes.append(probe)
            report, faults = check_report(str(bench.report_path),
                                          proc.exit_code, workload)
            if report is not None:
                threads = report["meta"]["threads"]
                proc.sidecar["witnesses"] = sum(
                    bool((p.get("p_membership") or {}).get("witness"))
                    for p in report["points"])
                text = canonical(report)
                report_bytes = bench.report_path.stat().st_size
                bench.report_path.unlink()
                if first_report is None:
                    first_report = text
                elif text != first_report:
                    faults.append("report differs from the first run's")
            bad = sum(i.startswith("point ") for i in faults)
            failed += workload.points if len(faults) > bad else bad
            problems += ["%s process %d: %s" % (proc.mode, len(processes), i)
                         for i in faults]
            processes.append(proc)
            elapsed = time.monotonic() - begin
            mean = elapsed / len(processes)
            # two processes at least, so that every run checks determinism
            if len(processes) >= 2 and elapsed + mean > seconds:
                break
        while len(probes) < PROBES:
            probes += bench.scaled(["setup"])
    finally:
        bench.close()

    plain = [p for p in processes if p.mode == "plain"]
    timed = [p for p in plain if "main_s" in p.sidecar]
    started = [p for p in probes + processes if "setup_end" in p.sidecar]
    raw = {
        "wall_s": [p.wall_s for p in plain],
        "setup_s": [p.setup_s for p in started],
        "points_per_s": [workload.points / p.sidecar["main_s"] for p in timed],
        "peak_rss_mb": [p.rss_mb for p in plain],
    }
    samples = {
        "wall_s": [p.wall_s * p.scale for p in plain],
        "setup_s": [p.setup_s * p.scale for p in started],
        "points_per_s": [workload.points / (p.sidecar["main_s"] * p.scale)
                         for p in timed],
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    result = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "env": dict(env, occert_threads=threads, **environment()),
        "attempted": workload.points * len(processes), "failed": failed,
        "problems": problems, "samples": samples,
        "raw_metrics": {name: _median(v) for name, v in raw.items()},
        "metrics": {name: _median(v) for name, v in samples.items()},
    }
    if trace:
        result["metrics"] = layer_result(workload, processes, report_bytes,
                                         problems)
    result["correct"] = not problems
    return result


def layer_result(workload: Workload, processes: list[Process],
                 report_bytes: int | None, problems: list[str]) -> dict:
    from tracing import layer_metrics, median_metrics

    untraced = _median([p.sidecar["main_s"] * p.scale for p in processes
                        if p.mode == "plain" and "main_s" in p.sidecar])
    layers = []
    for p in processes:
        if p.mode == "traced" and "trace" in p.sidecar:
            m = layer_metrics(p.sidecar["trace"], p.sidecar["main_s"],
                              workload.points, MAX_ITER)
            m["trace.overhead_ratio"] = p.sidecar["main_s"] * p.scale / untraced
            layers.append(m)
    if not layers:
        problems.append("no traced process completed")
        return {}
    metrics = median_metrics(layers)
    metrics["cli.report_bytes"] = report_bytes or 0
    metrics["certify.search.witnesses"] = statistics.median(
        p.sidecar.get("witnesses", 0) for p in processes if p.mode == "traced")
    if metrics["trace.coverage_ratio"] < COVERAGE_GATE:
        problems.append("trace covers %.3f of cli.main, below %.2f"
                        % (metrics["trace.coverage_ratio"], COVERAGE_GATE))
    return metrics


def environment() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = out.stdout.strip() or sha
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "git_sha": sha}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def tail(values: list[float]) -> tuple[str, float] | None:
    """Highest percentile with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return None
    k = n - 11
    return "p%d" % (100 * (k + 1) // n), sorted(values)[k]


def print_result(result: dict, units: dict) -> None:
    name = result["workload"]
    print("%s: attempted %d points, failed %d (failed_ratio %.4f)"
          % (name, result["attempted"], result["failed"],
             result["failed"] / result["attempted"]))
    for problem in result["problems"]:
        print("%s: FAIL %s" % (name, problem))
    samples = result["samples"]
    for metric, value in result["metrics"].items():
        line = "%s: %-58s %14.6g %s" % (name, metric, value, units.get(metric, ""))
        if not result["trace"]:
            top = tail(samples[metric])
            line += "  raw: median %.6g of %d%s" % (
                result["raw_metrics"][metric], len(samples[metric]),
                ", %s %.6g" % top if top else ", no percentile with 10 above")
        print(line)


def load_units() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full result(s) here as JSON")
    args = parser.parse_args(argv)
    if not (SRC / "occert" / "cli.py").is_file():
        print("perfbench: no occert sources under %s; run from a checkout "
              "of the repository" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    units = load_units()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds,
                              bool(args.trace))
        print("%s: env %s" % (name, json.dumps(result["env"], sort_keys=True)))
        print_result(result, units)
        results.append(result)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=2)
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else r["workload"] + "/"
        for metric, value in r["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
