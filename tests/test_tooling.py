"""Tooling smoke test: the benchmark's span tracer still binds the layers it
names.

``perfbench/tracer.py`` wraps package functions from outside and raises if
a wrapped original is left bound, so a refactor that moves or renames a
traced function shows up here, not first in a benchmark run.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import fkips

from .test_golden import ADAPTIVE, BOUNDED, CLASSIC, VERIFY_ADAPTIVE

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
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
                "measures.KernelMatrix.power",
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
    ],
)
def test_tracer_records_named_spans(command, text, spans, tmp_path):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(text)
    spans_path = tmp_path / "spans.tsv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans_path), command,
         "--config", str(cfg), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    recorded = {line.split("\t")[2] for line in spans_path.read_text().splitlines()}
    assert spans <= recorded
