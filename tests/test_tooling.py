"""Tooling smoke tests: the benchmark's span tracer still binds the layers it
names, its set-up probe still parses a config, every benchmark workload
still passes its own gate, every public name and class member of the
package has a caller, and only the engine draws particles.

``perfbench/tracer.py`` wraps package functions from outside and raises if
a wrapped original is left bound, so a refactor that moves or renames a
traced function shows up here, not first in a benchmark run.
"""

import ast
import collections
import csv
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import fkips
from fkips.cli import main as cli_main

from .test_golden import ADAPTIVE, BOUNDED, CLASSIC, DECREASING, ISA, VERIFY_ADAPTIVE

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
SRC = pathlib.Path(fkips.__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "command, text, spans",
    [
        ("run", CLASSIC, {"harness.ExperimentConfig.build_flow"}),
        (
            "verify-bounds",
            VERIFY_ADAPTIVE,
            {
                "harness.ExperimentConfig.build_flow",
                "adaptive.LambdaCurve.value",
                "measures.kernel_powers",
            },
        ),
        # the path the adaptive-run workload times: the count loop with the
        # adaptive step rule
        (
            "adaptive",
            ADAPTIVE,
            {"adaptive.run_adaptive_counts", "adaptive.kappa_solve", "adaptive.LambdaCurve.value"},
        ),
        # the exact layer of a classic bound check: the lemma and oracle
        # rows read the composed-operator table
        (
            "verify-bounds",
            BOUNDED,
            {"flow.check_semigroup_lemmas", "harness.check_oracle_identity"},
        ),
        # both regimes run through the one regime check
        ("verify-bounds", DECREASING, {"harness.check_regime"}),
        # the path the isa-verify workload times: the tuned flow, its stacked
        # kernels and their powers, the minorization's proposal power and
        # the replicated optimizer inside the annealing checks
        (
            "verify-bounds",
            ISA,
            {
                "annealing.optimize",
                "harness.check_isa_bounds",
                "annealing.build_isa_flow",
                "annealing.metropolis_kernels",
                "measures.kernel_powers",
                "measures.KernelMatrix.power",
            },
        ),
    ],
)
def test_tracer_records_named_spans(command, text, spans, tmp_path):
    assert spans <= set(_traced_span_names(command, text, tmp_path))


def test_composed_table_is_built_once_in_its_own_span(tmp_path):
    # the table build is a module function, so the tracer times it apart
    # from its first reader, the oracle identity check
    names = _traced_span_names("verify-bounds", BOUNDED, tmp_path)
    assert names.count("flow.semigroup_table") == 1


def _traced_span_names(command, text, tmp_path):
    """The name of every span of one traced CLI run, in the tracer's order."""
    cfg = tmp_path / "case.cfg"
    cfg.write_text(text)
    spans_path = tmp_path / "spans.tsv"
    proc = _run_with_src(
        [str(TRACER), str(spans_path), command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    )
    assert proc.returncode == 0, proc.stderr
    return [line.split("\t")[2] for line in spans_path.read_text().splitlines()]


def test_setup_probe_parses_a_golden_config(tmp_path):
    # the benchmark times set-up with this probe, which reaches
    # parse_config as a name of fkips.harness
    cfg = tmp_path / "case.cfg"
    cfg.write_text(ISA)
    proc = _run_with_src(["-c", _perfbench_run().SETUP_PROBE, str(cfg)])
    assert proc.returncode == 0, proc.stderr


def _run_with_src(args):
    """One Python subprocess that imports the package from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def _workloads():
    """``perfbench/workloads.py`` as a module; its dataclasses need it in
    ``sys.modules`` while it runs."""
    return _perfbench_module("perfbench_workloads", "workloads.py")


def _perfbench_run():
    """``perfbench/run.py`` as a module; it imports the workloads module by
    its bare name."""
    sys.modules.setdefault("workloads", _workloads())
    return _perfbench_module("perfbench_run", "run.py")


def _perfbench_module(name, filename):
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


@pytest.mark.parametrize(
    "name, seed",
    [(name, seed) for name in _workloads().WORKLOADS for seed in (11, 5)],
)
def test_workload_passes_its_gate(name, seed, tmp_path):
    # every benchmark workload, run in process at two benchmark seeds: it
    # writes its outputs and its gate finds nothing; a refused hypothesis
    # raises Refused.  The verify workloads must write exactly the row
    # counts their gates expect.
    module = _workloads()
    workload = module.WORKLOADS[name]
    cfg = tmp_path / "case.cfg"
    cfg.write_text(workload.config(seed))
    out = tmp_path / "out"
    assert cli_main([workload.command, "--config", str(cfg), "--out", str(out)]) == 0
    assert all((out / f).is_file() for f in workload.outputs)
    rows = {"isa-verify": module.ISA_ROWS, "exact-verify": module.EXACT_ROWS}
    if name in rows:
        with open(out / "verify.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == rows[name]
    assert workload.gate(str(out)) == []


# Public names that only tests reach, each with the ROADMAP item that gives
# it a caller in src/ or deletes it.
UNCALLED_ALLOWLIST = {
    "adaptive.perturbation_check": "item 14",
    "adaptive.l2_error_check": "item 14",
    "adaptive.khintchine_conditional_check": "item 14",
    "bounds.raw_eta_tail_level": "items 1 and 2",
    "bounds.raw_gamma_threshold": "item 2",
    "flow.raw_concentration_estimates": "item 2",
    "flow.stability_sums": "item 9",
}


def _src_modules():
    """(module name, parsed tree) of every module of the package."""
    for path in sorted((SRC / "fkips").glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def test_every_public_src_name_has_a_caller():
    # a module-level public function or class must be read somewhere in
    # src/ other than its own definition and the package's re-exports: a
    # name in fkips/__init__.py or fkips.__all__ is not a caller.
    # Test-only references belong in tests/
    defined, read = {}, set()
    for module, tree in _src_modules():
        for node in tree.body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                if not own.startswith("_"):
                    defined[f"{module}.{own}"] = own
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                elif isinstance(sub, ast.alias):
                    name = sub.name.rpartition(".")[2]
                else:
                    continue
                if name != own and module != "__init__":
                    read.add(name)
    uncalled = {qualified for qualified, name in defined.items() if name not in read}
    assert uncalled == set(UNCALLED_ALLOWLIST)


# Public class members that only tests reach, each with the ROADMAP item
# that gives it a caller in src/ or deletes it.
UNREAD_MEMBER_ALLOWLIST = {
    f"flow.RawConcentrationEstimates.{field}": "item 2"
    for field in ("n", "r_n", "r_bar", "tau_star", "beta_bar_sq", "sigma_bar_sq", "b_star")
}


def test_every_public_src_member_is_read():
    # a public method, property, classmethod or dataclass field of a class
    # in src/ must be read as an attribute, or named by a getattr string,
    # somewhere in src/ outside its own definition; test-only members
    # belong in tests/.  Reads are matched by name, not by class: a member
    # passes when any attribute of that name is read, so one whose name
    # another class also reads slips through (FlowTrace.horizon hid behind
    # FlowSpec.horizon, and PotentialVector.constant behind cls.constant)
    members, reads = [], collections.Counter()
    for module, tree in _src_modules():
        reads.update(_attribute_reads(tree))
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for item in cls.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = item.name
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                else:
                    continue
                if not name.startswith("_"):
                    members.append((f"{module}.{cls.name}.{name}", name, item))
    unread = {
        qualified for qualified, name, item in members
        if reads[name] == list(_attribute_reads(item)).count(name)
    }
    assert unread == set(UNREAD_MEMBER_ALLOWLIST)


def _attribute_reads(node):
    """Every name read as an attribute, or as a ``getattr`` string, under
    ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            yield sub.attr
        elif (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "getattr"
            and len(sub.args) > 1
            and isinstance(sub.args[1], ast.Constant)
        ):
            yield sub.args[1].value


def test_only_the_engine_draws_particles():
    # the transition and its streams stay private to fkips.engine, so no
    # other module keeps a second copy of the particle loop
    private = {"_SlotStream", "_transition", "_move_particles"}
    for module, tree in _src_modules():
        if module == "engine":
            continue
        names = set(_attribute_reads(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        assert not names & private, module
