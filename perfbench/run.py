"""fkips benchmark: the real CLI on seeded workloads, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/`` and writes only under ``.perfbench_work/``.  NAME is one of the
workloads in ``workloads.py`` or ``all``.

Each run writes the workload's config (built from the seed), times
set-up ``SETUP_PROBES`` times, then invokes ``python -m fkips.cli`` one
invocation at a time (closed loop, one client, threads = 1) until S
seconds, set-up included, are used.  Every invocation is checked by the
workload's gate and its output bytes must equal the first invocation's.
With ``--trace 0`` the end-to-end metrics are medians over the
invocations; with ``--trace 1`` untraced and traced invocations
(``tracer.py``) alternate and the per-layer metrics come from the spans
of the traced ones.  See ``NOTES.md`` for the workloads and metrics.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full report, with the run manifest, goes
to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

from workloads import WORKLOADS, Refused

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench_work"
SETUP_PROBES = 5
MIN_INVOCATIONS = 3
INVOCATION_LIMIT_S = 150.0
# single-threaded baseline: no BLAS or OpenMP worker threads either
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBE = (
    "import sys, fkips.cli\n"
    "with open(sys.argv[1]) as fh:\n"
    "    fkips.harness.parse_config(fh.read())\n"
)
VERSIONS_PROBE = (
    "import json, numpy\n"
    "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
    "print(json.dumps({'numpy': numpy.__version__,"
    " 'blas': blas.get('name', '?') + ' ' + blas.get('version', '?')}))\n"
)

# Per-layer spans reported by name (see NOTES.md for what each should move).
LAYER_SPANS = (
    "engine.substream",
    "engine.init_ensemble",
    "engine.selection_step",
    "engine.mutation_step",
    "engine.run_ips",
    "adaptive.kappa_solve",
    "adaptive.LambdaCurve.value",
    "adaptive.run_adaptive",
    "adaptive.theoretical_adaptive_flow",
    "annealing.minorize",
    "annealing.build_isa_flow",
    "annealing.metropolis_kernel",
    "annealing.gibbs_measure",
    "annealing.optimize",
    "measures.KernelMatrix.power",
    "measures.dobrushin",
    "flow.run_flow",
    "flow.semigroup",
    "flow.semigroup_table",
    "flow.check_semigroup_lemmas",
    "harness.parse_config",
    "harness.ExperimentConfig.build_flow",
    "harness.run_experiment",
    "harness.aggregate",
    "harness.emit_csv",
    "harness.verify_bounds",
    "harness.check_oracle_identity",
    "harness.check_uniform_regime",
    "harness.check_isa_bounds",
    "cli.main",
)


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int


def spawn(argv, env, log_path) -> Invocation:
    """Run one child process to completion and collect its own rusage."""
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(INVOCATION_LIMIT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,   # kB on Linux
        returncode=proc.returncode,
    )


def digests(out_dir, names) -> dict:
    result = {}
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            result[name] = hashlib.sha256(fh.read()).hexdigest()
    return result


def layer_metrics(spans_path):
    """The named per-layer metrics, and calls and self time of every span
    name."""
    name_of, dur, child = {}, {}, defaultdict(float)
    curve_in_solve = 0
    with open(spans_path) as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh]
    for sid, parent, name, start, end in rows:
        name_of[sid] = name
        dur[sid] = float(end) - float(start)
        child[parent] += dur[sid]
    calls, self_s = defaultdict(int), defaultdict(float)
    for sid, parent, name, _, _ in rows:
        calls[name] += 1
        self_s[name] += dur[sid] - child[sid]
        if name == "adaptive.LambdaCurve.value" and name_of.get(parent) == "adaptive.kappa_solve":
            curve_in_solve += 1
    main_wall = sum(dur[s] for s, n in name_of.items() if n == "cli.main")
    out = {}
    for name in LAYER_SPANS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out["bounds.calls"] = sum(c for n, c in calls.items() if n.startswith("bounds."))
    out["bounds.self_s"] = sum(s for n, s in self_s.items() if n.startswith("bounds."))
    solves = calls["adaptive.kappa_solve"]
    out["adaptive.curve_evals_per_solve"] = curve_in_solve / solves if solves else 0.0
    below_main = sum(s for n, s in self_s.items() if n != "cli.main")
    out["trace.covered_fraction"] = below_main / main_wall if main_wall else 0.0
    return out, {n: {"calls": calls[n], "self_s": self_s[n]} for n in sorted(calls)}


def git_commit(root) -> str:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Run:
    """One workload at one seed: config, set-up probes, timed invocations."""

    def __init__(self, root, workload, seed, seconds, trace):
        self.root, self.w, self.seed, self.seconds, self.trace = root, workload, seed, seconds, trace
        self.dir = os.path.join(root, WORK_DIR, f"run-{os.getpid()}-{workload.name}")
        self.env = dict(os.environ, **THREAD_PINS)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        self.attempted = 0
        self.failures = []
        self.reference = None   # output digests of the first invocation

    def time_setup(self) -> float:
        log = os.path.join(self.dir, "setup.log")
        inv = spawn([sys.executable, "-c", SETUP_PROBE, self.config_path], self.env, log)
        if inv.returncode != 0:
            with open(log) as fh:
                raise RuntimeError(f"set-up failed with exit {inv.returncode}: {fh.read()[-2000:]}")
        return inv.wall_s

    def invoke(self, traced: bool, spans_path=None) -> Invocation:
        """One CLI invocation plus its gate; returns its timings."""
        self.attempted += 1
        out = os.path.join(self.dir, f"out-{self.attempted}")
        cli = [self.w.command, "--config", self.config_path, "--out", out]
        if traced:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), spans_path, *cli]
        else:
            argv = [sys.executable, "-m", "fkips.cli", *cli]
        os.makedirs(out)
        inv = spawn(argv, self.env, os.path.join(out, "cli.log"))
        errors = []
        if inv.returncode != 0:
            errors.append(f"exit code {inv.returncode}")
        missing = [n for n in self.w.outputs if not os.path.isfile(os.path.join(out, n))]
        if missing:
            errors.append("missing outputs: " + ", ".join(missing))
        if not errors:
            try:
                errors += self.w.gate(out)
            except (KeyError, ValueError) as exc:
                errors.append(f"outputs not in the expected form: {exc!r}")
            got = digests(out, self.w.outputs)
            if self.reference is None:
                self.reference = got
            elif got != self.reference:
                errors.append("output bytes differ from the first invocation")
        if errors:
            with open(os.path.join(out, "cli.log")) as fh:
                tail = fh.read()[-1000:]
            self.failures.append({"invocation": self.attempted, "traced": traced, "errors": errors, "log": tail})
        shutil.rmtree(out)
        return inv

    def execute(self) -> dict:
        os.makedirs(self.dir)
        text = self.w.config(self.seed)
        self.config_path = os.path.join(self.dir, "exp.cfg")
        with open(self.config_path, "w") as fh:
            fh.write(text)
        report = {"manifest": self.manifest(text)}
        self.deadline = time.perf_counter() + self.seconds
        if self.trace:
            report.update(self.traced_loop())
        else:
            setup = [self.time_setup() for _ in range(SETUP_PROBES)]
            report.update(self.timed_loop(setup))
        report.update(attempted=self.attempted, failed=len(self.failures), failures=self.failures)
        report["digests"] = self.reference
        return report

    def _loop(self, min_count, step):
        """Call ``step(k)`` until the run's seconds are used; stop early
        rather than start an invocation that would overrun them."""
        walls = []
        while True:
            walls.append(step(len(walls)))
            left = self.deadline - time.perf_counter()
            if len(walls) >= min_count and left < statistics.median(walls):
                return

    def timed_loop(self, setup) -> dict:
        runs = []

        def step(k):
            runs.append(self.invoke(False))
            return runs[-1].wall_s

        self._loop(MIN_INVOCATIONS, step)
        wall = statistics.median(r.wall_s for r in runs)
        metrics = {
            "wall_s": (wall, "s"),
            "cpu_s": (statistics.median(r.cpu_s for r in runs), "s"),
            "particle_steps_per_s": (self.w.particle_steps / wall, "1/s"),
            "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in runs), "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
        samples = {
            "wall_s": [r.wall_s for r in runs],
            "cpu_s": [r.cpu_s for r in runs],
            "peak_rss_mb": [r.peak_rss_mb for r in runs],
            "setup_s": setup,
        }
        return {"metrics": metrics, "samples": samples}

    def traced_loop(self) -> dict:
        plain, traced, layers = [], [], []   # layers: (named metrics, span table)
        spans_path = os.path.join(self.dir, "spans.tsv")

        def step(k):
            if k % 2 == 0:
                plain.append(self.invoke(False).wall_s)
                return plain[-1]
            traced.append(self.invoke(True, spans_path).wall_s)
            if os.path.exists(spans_path):
                layers.append(layer_metrics(spans_path))
                # spans are large: keep only the latest traced run's per workload
                os.replace(spans_path, self.results_path(f"{self.w.name}-spans.tsv"))
            return traced[-1]

        self._loop(2, step)
        if not layers:
            return {"metrics": {}}
        metrics = {}
        for key in layers[0][0]:
            unit = "s" if key.endswith("_s") else ("ratio" if key.endswith("fraction") else "count")
            metrics[key] = (statistics.median(named[key] for named, _ in layers), unit)
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
        return {
            "metrics": metrics,
            "all_spans": layers[-1][1],
            "traced_wall_s": traced,
            "plain_wall_s": plain,
        }

    def results_path(self, filename) -> str:
        d = os.path.join(self.root, WORK_DIR, "results")
        os.makedirs(d, exist_ok=True)
        return os.path.join(d, filename)

    def manifest(self, text) -> dict:
        versions = json.loads(subprocess.run(
            [sys.executable, "-c", VERSIONS_PROBE], env=self.env, capture_output=True, text=True, check=True
        ).stdout)
        return {
            "workload": self.w.name,
            "command": ["python", "-m", "fkips.cli", self.w.command, "--config", "exp.cfg", "--out", "DIR"],
            "seed": self.seed,
            "config_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "config_bytes": len(text),
            "sizes": self.w.sizes,
            "git_commit": git_commit(self.root),
            "python": platform.python_version(),
            "numpy": versions["numpy"],
            "blas": versions["blas"],
            "nproc": os.cpu_count(),
            "thread_pins": THREAD_PINS,
            "seconds": self.seconds,
            "trace": self.trace,
        }


def run_workload(root, name, seed, seconds, trace) -> dict:
    run = Run(root, WORKLOADS[name], seed, seconds, trace)
    try:
        report = run.execute()
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    with open(run.results_path(f"{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fkips", "cli.py")):
        print("perfbench: run from the root of an fkips source checkout (src/fkips missing)", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            report = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        except Refused as exc:
            print(f"perfbench: seed {args.seed} refused for {name}: {exc}", file=sys.stderr)
            return 3
        attempted += report["attempted"]
        failed += report["failed"]
        for f in report["failures"]:
            print(f"{name}: invocation {f['invocation']} failed: {'; '.join(f['errors'])}", file=sys.stderr)
        print(f"{name}: manifest {json.dumps(report['manifest'], sort_keys=True)}")
        n = report["attempted"]
        print(f"{name}: failed_fraction {report['failed'] / n:.4f} ratio (n={n})")
        for key, (value, unit) in report["metrics"].items():
            samples = len(report.get("samples", {}).get(key, [])) or n
            print(f"{name}: {key} {value:.6g} {unit} (n={samples})")
            metrics[key if len(names) == 1 else f"{name}.{key}"] = {"value": value, "unit": unit}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
