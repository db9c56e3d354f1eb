"""Harness: config grammar, replicate orchestration, aggregation,
verification dispatch, CSV emission and the CLI."""

import csv
import io
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fkips
from fkips import annealing
from fkips.cli import main as cli_main
from fkips.config import _SCHEMA, _parse_sections, _parse_value
from fkips.engine import BLOCK, run_counts
from fkips.errors import ConfigError, InputError
from fkips.flow import FlowSpec, check_semigroup_lemmas
from fkips.harness import (
    CheckRow,
    _raw_csv,
    aggregate,
    check_oracle_identity,
    check_regime,
    emit_csv,
    parse_config,
    run_experiment,
    verify_bounds,
)
from fkips.measures import KernelMatrix, uniform_law

from .configs import flow_to_config, serialize_config
from .instances import bounded_regime_flow, repeated_flow, table_check_flows
from .oracles import oracle_identity_gaps, parse_sections_by_lines, parse_value_by_floats
from .test_golden import ADAPTIVE, BOUNDED, CLASSIC, DECREASING, ISA, RUN, VERIFY_ADAPTIVE
from .test_tooling import _workloads

GOLDEN_V = "v = 0.5 0.65 0.8 1.0"
GOLDEN_GRID = "beta0 = 0.0\ndelta = 0.5\nsteps = 4"

# Two states under an independence proposal whose first increment is about
# 720 / V_max, so e^{Delta V_max} and the potential ratio are past float64
# while every potential is positive: c_1 = inf and the hypothesis is unmet.
# At mcmc_iters = 1000 the kernel's rows agree to the last bit, b_1 = 0 and
# the level b g (1 + c) is NaN, which must not pass either.
HUGE_C = """
[problem]
dim = 2
v = 8.9636e-05 1
m = 0.8 0.2
proposal = 0.8 0.2; 0.8 0.2

[algorithm]
kind = adaptive

[adaptive]
epsilon = 0.75

[run]
n_particles = 40
steps = 1
replicates = 5
seed = 13

[checks]
a = 0.6
s_values = 0.05
y_values = 1
"""
NAN_LEVEL = HUGE_C.replace("epsilon = 0.75", "epsilon = 0.75\nmcmc_iters = 1000")

# The golden decreasing flow with its potential rows reversed:
# g = 1.0625, 1.125, 1.25, 1.5
RISING_DECREASING = DECREASING.replace(
    "1 1.5 1.2; 1.25 1 1.1; 1 1.05 1.125; 1.0625 1 1.03",
    "1.0625 1 1.03; 1 1.05 1.125; 1.25 1 1.1; 1 1.5 1.2",
)
# Increments that build_isa_flow accepts within 1e-12, whose ratios
# e^{Delta osc V} (osc V = 1) rise by more than 1e-15
RISING_ISA = ISA.replace("mode = constant", "mode = decreasing").replace(
    GOLDEN_GRID, "betas = 0 0.5 1.0000000000005 1.4 1.7"
)

CLASSIC_TEXT = """
# minimal classic flow
[flow]
initial = uniform
potentials = 1 2; 1 2; 1 2
kernel = 0.8 0.2; 0.3 0.7

[algorithm]
kind = classic

[run]
n_particles = 120
steps = 3
replicates = 4
seed = 7
"""

ADAPTIVE_TEXT = """
[problem]
dim = 4
v = 0.5 0.65 0.8 1.0
m = uniform
proposal = lazy-ring 0.25

[algorithm]
kind = adaptive

[adaptive]
epsilon = 0.75
mcmc_iters = 3

[run]
n_particles = 150
steps = 3
replicates = 6
seed = 11
"""


BOUNDED_TEXT = CLASSIC_TEXT + "\n[checks]\nregime = bounded\na = 0.5\ng_sup = 2.0\n"

ISA_TEXT = """
[problem]
v = 0 0.5 1
proposal = lazy-ring 0.5

[algorithm]
kind = isa

[schedule]
k0 = 2
"""


class TestParsing:
    def test_minimal_classic_with_defaults(self):
        cfg = parse_config(CLASSIC_TEXT)
        assert cfg.kind == "classic"
        assert cfg.n_particles == 120 and cfg.replicates == 4
        assert cfg.eps_mode == "auto"
        flow = cfg.build_flow()
        assert flow.horizon == 3 and flow.dim == 2

    def test_negative_population_names_the_field(self):
        with pytest.raises(ConfigError) as err:
            parse_config(CLASSIC_TEXT.replace("n_particles = 120", "n_particles = -3"))
        assert any("n_particles" in e for e in err.value.errors)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(CLASSIC_TEXT + "\nwhatever = 3\n")
        assert any("whatever" in e for e in err.value.errors)
        with pytest.raises(ConfigError):
            parse_config("[bogus_section]\nx = 1\n")

    def test_error_list_collects_multiple(self):
        bad = CLASSIC_TEXT + "\njunk1 = 1\njunk2 = 2\n"
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert len(err.value.errors) == 2

    def test_round_trip_is_idempotent(self):
        for text in (CLASSIC_TEXT, ADAPTIVE_TEXT):
            cfg = parse_config(text)
            canon = serialize_config(cfg)
            assert serialize_config(parse_config(canon)) == canon

    def test_flow_to_config_round_trip(self):
        flow = bounded_regime_flow(3, seed=42)
        cfg = parse_config(flow_to_config(flow, n_particles=77, seed=5))
        rebuilt = cfg.build_flow()
        assert rebuilt.horizon == flow.horizon
        assert np.allclose(rebuilt.initial, flow.initial)
        assert np.allclose(rebuilt.potentials, flow.potentials, rtol=1e-15)
        assert np.allclose(rebuilt.kernels, flow.kernels, rtol=1e-15)

    def test_shared_kernel_and_its_stack_give_the_same_bytes(self, tmp_path):
        # one "kernel =" line and the same kernel written once per step as a
        # "kernels =" stack build the same flow arrays, so the trace, the
        # table and every output file are byte-identical
        kernel = "0.4 0.3 0.3; 0.3 0.4 0.3; 0.3 0.3 0.4"
        assert f"kernel = {kernel}\n" in BOUNDED
        stacked = BOUNDED.replace(f"kernel = {kernel}", "kernels = " + "; ".join([kernel] * 4))
        flows = [parse_config(text).flow for text in (BOUNDED, stacked)]
        for flow in flows:
            for arr in (flow.potentials, flow.kernels):
                assert arr.flags.c_contiguous and not arr.flags.writeable
        shared, stack = flows
        assert shared.kernels.tobytes() == stack.kernels.tobytes()
        assert repr(shared.trace) == repr(stack.trace)
        for name in ("g", "b", "mass"):
            assert getattr(shared.table, name).tobytes() == getattr(stack.table, name).tobytes()
        outputs = []
        for i, text in enumerate((BOUNDED, stacked)):
            cfg_path, out = tmp_path / f"{i}.cfg", tmp_path / f"out{i}"
            cfg_path.write_text(text)
            for command in ("run", "verify-bounds"):
                assert cli_main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert set(outputs[0]) == {"raw.csv", "stats.csv", "oracle.csv", "verify.csv"}
        assert outputs[0] == outputs[1]


_TOKENS = st.one_of(
    st.floats().map(repr),
    st.floats().map(lambda x: format(x, ".17g")),
    st.sampled_from(["nan", "-inf", "1e400", "-0"]),
)


@st.composite
def _number_texts(draw):
    """A vector, or a table of 1x1 to 8x8 (one row is written as a
    vector), with varied token and row separators."""
    cols = draw(st.integers(1, 8))
    n_rows = draw(st.integers(1, 8))
    gap = draw(st.sampled_from([" ", "\t", "  "]))
    rows = [gap.join(draw(st.lists(_TOKENS, min_size=cols, max_size=cols))) for _ in range(n_rows)]
    return draw(st.sampled_from([";", "; ", " ;\t"])).join(rows)


# tokens float() reads and numpy's text reader refuses, tokens neither
# reads, and blank or ragged rows that numpy would skip or refuse
HOSTILE_VALUES = (
    "1_000 2",
    "1 2; 3 1_000",
    "\u0661\u0662 3",
    "1 2; \u0661 3",
    "0x10 1",
    "1,5 2",
    "1 2; 1,5 3",
    "1\t2;3\t4",
    "1\t2",
    "1 2;",
    "1 2; ;3 4",
    ";",
    " ; ; ",
    "1 2;3",
    "1;2 3",
    "1 2 3; 4 5",
    "1\xa02 3",
)


def _assert_same_value(got, want):
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    else:
        assert repr(got) == repr(want)


class TestParseValue:
    """numpy's text reader returns what float() returns, token by token."""

    @settings(max_examples=300, deadline=None)
    @given(_number_texts())
    def test_tables_match_float_parse(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _parse_value(text)
        _assert_same_value(got, parse_value_by_floats(text))

    @pytest.mark.parametrize("text", HOSTILE_VALUES)
    def test_hostile_values_match_float_parse(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _parse_value(text)
        _assert_same_value(got, parse_value_by_floats(text))

    def test_number_tables_parse_in_a_few_bytes_per_character(self):
        # d^2 T = 163 840 kernel numbers in 3.5 MB of text; a Python str
        # and float per number peaked at 7.6x the text
        text = flow_to_config(bounded_regime_flow(40, dim=64, seed=13))
        tracemalloc.start()
        try:
            parse_config(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * len(text)

    def test_benchmark_verify_config_parses_below_its_text_size(self):
        # the exact-verify workload's seed-11 text: 3.5 MB, most of it a
        # 2560 x 64 kernel stack, read one row slice at a time and let go
        # of once the flow's kernels hold it
        text = _workloads()._exact_verify_config(random.Random("exact-verify:11"))
        tracemalloc.start()
        try:
            cfg = parse_config(text)
            flow = cfg.flow
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(text)
        # both parsed tables leave the raw config once the flow holds them
        assert not {"potentials", "kernels"} & set(cfg.raw.sections["flow"])
        # the flow's kernels are the only float copy of the stack left: the
        # 64 KiB of slack covers the flow's potentials (20 KiB) and the
        # config's objects; 23-25 KiB were held on top of the 1.31 MB of kernels
        assert held <= flow.kernels.nbytes + 64 * 1024


# every separator str.splitlines cuts at, and whitespace str.strip drops
# that is no line break
_LINE_BREAKS = (
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"
)
_PADS = st.sampled_from(["", " ", "\t", "  ", "\x1f", "\xa0"])
_SECTIONS = sorted(_SCHEMA) * 3 + ["bogus", "", "run]"]   # mostly known ones
_VALUES = st.one_of(
    _number_texts(),
    st.sampled_from(HOSTILE_VALUES),
    st.sampled_from(["uniform", "lazy-ring 0.5", "true", "False", "7", "-3", "2.5", "1e-13", ""]),
)
_COMMENTS = st.text(
    st.characters(blacklist_characters="".join(_LINE_BREAKS), blacklist_categories=("Cs",)),
    max_size=6,
)


@st.composite
def _config_line(draw, keys, bad):
    """A key line of one of ``keys``, a comment or a blank line; if ``bad``,
    also an unknown key, a section header or a line with no ``=``."""
    a, b, c, d = draw(st.lists(_PADS, min_size=4, max_size=4))
    kinds = ["key"] * 6 * bool(keys or bad) + ["comment", "blank"] + ["section", "junk"] * bad
    kind = draw(st.sampled_from(kinds))
    if kind == "section":
        line = f"{a}[{b}{draw(st.sampled_from(_SECTIONS))}{c}]{d}"
    elif kind == "key":
        key = draw(st.sampled_from(keys + (["whatever", "", "a b"] if bad else [])))
        line = f"{a}{key}{b}={c}{draw(_VALUES)}{d}"
    elif kind == "junk":
        line = a + draw(st.sampled_from(["junk", "[flow", "flow]", "1 2; 3 4"])) + b
    else:
        line = a
    if kind == "comment" or draw(st.booleans()):
        line += "#" + draw(_COMMENTS)
    return line


@st.composite
def _config_texts(draw):
    """Sections of lines, each line ended by any of ``_LINE_BREAKS``; the
    last break is sometimes left off.  Half the texts hold only good lines."""
    bad = draw(st.booleans())
    lines = draw(st.lists(_config_line([], bad), max_size=2))
    for name in draw(st.lists(st.sampled_from(_SECTIONS if bad else sorted(_SCHEMA)), max_size=4)):
        lines.append(f"[{name}]")
        lines += draw(st.lists(_config_line(sorted(_SCHEMA.get(name, ())), bad), max_size=5))
    breaks = draw(st.lists(st.sampled_from(_LINE_BREAKS), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    return text if draw(st.booleans()) else text.rstrip("".join(_LINE_BREAKS))


def _parsed(parse, text):
    """Sections, or the messages of the ConfigError that refused the text."""
    try:
        return parse(text)
    except ConfigError as exc:
        return exc.errors


class TestParseSections:
    """Cutting lines, keys and values by index parses what the
    line-copying loop parses, and refuses what it refuses, line numbers
    included."""

    @settings(max_examples=400, deadline=None)
    @given(_config_texts())
    def test_spans_parse_as_split_lines(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _parsed(_parse_sections, text)
        want = _parsed(lambda t: parse_sections_by_lines(t, _SCHEMA), text)
        assert type(got) is type(want)
        if isinstance(want, list):
            assert got == want
            return
        assert list(got) == list(want)
        for name, body in want.items():
            assert list(got[name]) == list(body)
            for key, value in body.items():
                _assert_same_value(got[name][key], value)


class TestRunExperiment:
    def test_single_replicate_reproduces_engine_run(self):
        cfg = parse_config(CLASSIC_TEXT.replace("replicates = 4", "replicates = 1"))
        flow = cfg.build_flow()
        direct = run_counts(flow, cfg.n_particles, cfg.seed, eps="auto")
        result = run_experiment(cfg)
        reader = csv.DictReader(io.StringIO(result["raw.csv"]))
        rows = {int(r["step"]): r for r in reader}
        for n in range(4):
            assert float(rows[n]["log_gamma1"]) == pytest.approx(
                direct.log_gamma1[0, n], rel=1e-15
            )

    def test_byte_identical_across_runs_and_threads(self):
        # the threads key is accepted for older configs and changes nothing
        outs = [
            run_experiment(parse_config(CLASSIC_TEXT + f"threads = {t}\n")) for t in (1, 2, 8)
        ]
        again = run_experiment(parse_config(CLASSIC_TEXT))
        assert len({o["raw.csv"] for o in outs} | {again["raw.csv"]}) == 1
        assert len({o["stats.csv"] for o in outs}) == 1

    def test_adaptive_kind_runs(self):
        cfg = parse_config(ADAPTIVE_TEXT)
        result = run_experiment(cfg)
        assert "delta" in result["raw.csv"].splitlines()[0]
        assert list(result) == ["raw.csv", "stats.csv"]

    def test_aggregation_matches_recomputation_from_raw(self):
        # raw.csv prints every value at .17g, so its cells are the run's
        # floats and stats.csv must print their aggregate
        cfg = parse_config(CLASSIC_TEXT)
        result = run_experiment(cfg)
        rows = list(csv.DictReader(io.StringIO(result["raw.csv"])))
        names = list(rows[0])[2:]
        steps = max(int(row["step"]) for row in rows) + 1
        values = np.array([[float(row[name]) for name in names] for row in rows])
        stats = aggregate(values.reshape(-1, steps, len(names)), names)
        per_step = {}
        for row in rows:
            per_step.setdefault(int(row["step"]), []).append(float(row["log_gamma1"]))
        j = stats.names.index("log_gamma1")
        for step, vals in per_step.items():
            arr = np.asarray(vals)
            assert stats.mean[step, j] == arr.mean()
            assert stats.se[step, j] == arr.std(ddof=1) / math.sqrt(arr.size)
        printed = [
            row for row in csv.DictReader(io.StringIO(result["stats.csv"]))
            if row["statistic"] == "log_gamma1"
        ]
        assert [float(row["mean"]) for row in printed] == stats.mean[:, j].tolist()


class TestAggregate:
    def test_fold_in_replicate_order(self):
        # each (step, statistic) summary equals the 1-d fold of its column
        # in replicate order, and its quantiles equal np.quantile's, bit for
        # bit; R = 300 spans pairwise-sum blocks, R = 1, 2, 3 put the
        # quantiles on the top index and both sides of t = 0.5
        rng = np.random.default_rng(4)
        special = [0.0, -0.0, 1.0, 1.0, -2.5, math.inf, -math.inf, 5e-324, -5e-324, 2e-310]
        for r in (1, 2, 3, 300):
            values = rng.lognormal(size=(r, 4, 3))
            values[:, 0, 1] = math.nan                      # all NaN
            values[r // 2, 1, 1] = math.nan                 # one NaN
            values[:, 2, :] = rng.choice(special, size=(r, 3))
            values[:, 3, 0] = rng.integers(0, 3, size=r)    # heavy ties
            values[:, 3, 2] = rng.choice([0.0, -0.0], size=r)
            names = ["x", "y", "z"]
            with np.errstate(invalid="ignore", over="ignore"):
                stats = aggregate(values, names)
                for n in range(4):
                    for j in range(len(names)):
                        col = values[:, n, j].copy()
                        assert np.array_equal(stats.mean[n, j], col.mean(), equal_nan=True)
                        if r > 1:
                            assert np.array_equal(
                                stats.se[n, j], col.std(ddof=1) / math.sqrt(r), equal_nan=True
                            )
                        got = stats.quantiles[:, n, j]
                        want = np.quantile(col, (0.1, 0.5, 0.9))
                        assert np.array_equal(got, want, equal_nan=True), (r, n, j, col)
                        assert got.tobytes() == want.tobytes(), (r, n, j, col)


class TestRawCsv:
    def test_row_template_prints_each_cell_at_17_digits(self):
        cells = [
            math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300,
            1.0, -3.0, 2.0 ** 53, 1e16, 0.1, 1 / 3,
        ]
        for k in (1, 3):
            values = np.array(cells[: len(cells) // k * k]).reshape(-1, 1, k)
            values = np.concatenate([values, values[::-1]], axis=1)   # (R, 2, k)
            names = [f"s{i}" for i in range(k)]
            want = ",".join(["replicate", "step", *names]) + "\n" + "".join(
                ",".join([str(rep), str(step)] + [format(x, ".17g") for x in row]) + "\n"
                for rep, steps in enumerate(values.tolist())
                for step, row in enumerate(steps)
            )
            assert _raw_csv(values, names) == want


class TestImports:
    def test_classic_runs_load_neither_annealing_adaptive_nor_numpy_ma(self, tmp_path):
        # annealing and adaptive are imported where they are called, and the
        # quantiles skip np.quantile, whose np.unique imports numpy.ma
        run_cfg, verify_cfg = tmp_path / "run.cfg", tmp_path / "verify.cfg"
        run_cfg.write_text(CLASSIC)
        verify_cfg.write_text(BOUNDED)
        script = (
            "import sys\n"
            "from fkips.cli import main\n"
            "out = sys.argv[3]\n"
            "assert main(['run', '--config', sys.argv[1], '--out', out]) == 0\n"
            "assert main(['verify-bounds', '--config', sys.argv[2], '--out', out]) == 0\n"
            "mods = ('fkips.annealing', 'fkips.adaptive', 'numpy.ma')\n"
            "print('loaded:', *(m for m in mods if m in sys.modules))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(fkips.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(run_cfg), str(verify_cfg), str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "loaded:"


class TestEmitCsv:
    def test_header_only_and_re_emission(self, tmp_path):
        path = tmp_path / "empty.csv"
        assert emit_csv({"empty.csv": "step,stat\n"}, tmp_path) == [str(path)]
        assert path.read_text() == "step,stat\n"
        emit_csv({"empty.csv": "step,stat\n"}, tmp_path)
        assert path.read_text() == "step,stat\n"

    def test_two_line_file(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv({"one.csv": "step,value\n0,1.5\n"}, tmp_path)
        assert path.read_text().splitlines() == ["step,value", "0,1.5"]

    def test_makes_the_directory_and_writes_every_file_in_order(self, tmp_path):
        out = tmp_path / "a" / "b"
        files = {"raw.csv": "x\n1\n", "stats.csv": "y\n", "oracle.csv": "z\r\n"}
        assert emit_csv(files, out) == [str(out / name) for name in files]
        assert {name: (out / name).read_bytes().decode() for name in files} == files


class TestVerifyDispatch:
    def test_degenerate_flow_trivially_passes(self):
        # unit potentials and rank-one kernels: every deviation is zero.
        # Without steps, each regime reports its hypothesis, composed-caps
        # and n = 0 L2 rows
        for horizon in (3, 0):
            flow = repeated_flow(
                uniform_law(3), np.ones(3), KernelMatrix.uniform(3).rows, horizon
            )
            for regime in ("bounded", "decreasing"):
                report = check_regime(flow, regime, 0.5, None, 50, 20, seed=3)
                assert len(report.rows) == 3 + 10 * horizon
                assert all(r.status == "pass" for r in report.rows)

    def test_uniform_regime_holds_over_a_thousand_steps(self):
        # uniformity in time: at T = 1000 the hypothesis, every composed cap
        # and the L2 level at each of the 1001 steps pass, and so do the
        # semigroup lemmas on the same table.  The deviation and mass-ratio
        # rows are not asserted: their threshold shrinks as 1/N
        flow = bounded_regime_flow(1000, dim=8, seed=13)
        rows = check_regime(flow, "bounded", 0.5, None, 200, 50, 7, y_values=(2.0,)).rows
        checked = [r for r in rows if r.name in ("uniform-hypothesis", "uniform-composed-caps")]
        l2 = [r for r in rows if r.name == "uniform-l2"]
        assert [r.name for r in checked] == ["uniform-hypothesis", "uniform-composed-caps"]
        assert [r.scope for r in l2] == [f"n={n}" for n in range(1001)]
        assert all(r.status == "pass" for r in checked + l2)
        assert check_semigroup_lemmas(flow)[0]

    def test_hypothesis_unmet_is_not_a_failure(self):
        # identity kernels break the mixing cap: rows must say so
        flow = repeated_flow(uniform_law(2), [1.0, 1.2], np.eye(2), 2)
        report = check_regime(flow, "bounded", 0.5, 1.2, 50, 10, seed=4)
        assert all(r.status == "hypothesis-unmet" for r in report.rows)
        assert not report.failures()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_oracle_identity_rows(self):
        report = check_oracle_identity(bounded_regime_flow(4, seed=50))
        assert all(r.status == "pass" for r in report.rows)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "flow", [pytest.param(flow, id=name) for name, flow in table_check_flows()]
    )
    def test_oracle_identity_is_the_per_pair_gap(self, flow):
        rows = check_oracle_identity(flow).rows
        assert [r.scope for r in rows] == [f"n={n}" for n in range(flow.horizon + 1)]
        want = np.array(oracle_identity_gaps(flow))
        assert np.array([r.lhs for r in rows]).tobytes() == want.tobytes()

    def test_unknown_regime_is_refused_before_any_replicate(self, monkeypatch):
        from fkips import harness

        flow = bounded_regime_flow(4, seed=50)
        with pytest.raises(InputError, match="'uniform'"):
            harness.composed_caps(flow, "uniform", 0.5, 1.5)
        monkeypatch.setattr(harness, "run_counts", lambda *a, **k: pytest.fail("replicates ran"))
        with pytest.raises(InputError, match="'uniform'"):
            check_regime(flow, "uniform", 0.5, None, 50, 10, seed=4)

    def test_config_driven_verify(self):
        text = CLASSIC_TEXT.replace(
            "kernel = 0.8 0.2; 0.3 0.7", "kernel = 0.55 0.45; 0.45 0.55"
        )
        text += "\n[checks]\nregime = bounded\na = 0.5\ng_sup = 2.0\ny_values = 2\n"
        cfg = parse_config(text)
        report = verify_bounds(cfg)
        assert all(r.status == "pass" for r in report.rows)
        csv_text = report.to_csv()
        assert csv_text.splitlines()[0] == "check,scope,lhs,rhs,margin,status"

    @pytest.mark.parametrize(
        "text, prefix",
        [(BOUNDED, "uniform"), (DECREASING, "decreasing")],
        ids=["bounded", "decreasing"],
    )
    def test_regimes_write_rows_in_one_order(self, text, prefix):
        # hypothesis, composed caps, L2 for n = 0..T, eta deviation (y-major),
        # then mass ratio (y-major, + before -), after the exact-layer rows
        cfg = parse_config(text)
        horizon, ys = cfg.flow.horizon, ("1", "2")
        steps = range(1, horizon + 1)
        expected = (
            [("oracle-mass-identity", f"n={n}") for n in range(horizon + 1)]
            + [("semigroup-lemmas", "all"), (f"{prefix}-hypothesis", "all")]
            + [(f"{prefix}-l2", f"n={n}") for n in range(horizon + 1)]
            + [(f"{prefix}-eta-deviation", f"n={n},y={y}") for y in ys for n in steps]
            + [
                (f"{prefix}-mass-ratio", f"n={n},y={y},sign={sign}")
                for y in ys for n in steps for sign in "+-"
            ]
        )
        got = [(r.name, r.scope) for r in verify_bounds(cfg).rows]
        assert got.pop(horizon + 3)[0] == f"{prefix}-composed-caps"
        assert got == expected

    def test_isa_exceedance_rows_cover_every_y(self):
        text = ISA_TEXT + "[run]\nn_particles = 60\nsteps = 3\nreplicates = 5\n"
        cfg = parse_config(text + "[checks]\ny_values = 2 4\n")
        scopes = [r.scope for r in verify_bounds(cfg).rows if r.name == "optimizer-exceedance"]
        horizon = cfg.isa.flow.horizon
        assert scopes == [f"n={n},y={y}" for y in (2, 4) for n in range(1, horizon + 1)]

    def test_check_row_margin(self):
        row = CheckRow("x", "s", 1.0, 3.0, "pass")
        assert row.margin == 2.0


class TestCli:
    def test_usage_error_on_bad_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        cases = [
            ("run", "[run]\nn_particles = -1\n", "n_particles"),
            ("adaptive", ADAPTIVE_TEXT.replace("epsilon = 0.75", "epsilon = 1.5"), "adaptive"),
            ("adaptive", ADAPTIVE_TEXT.replace("mcmc_iters = 3", "tol = 1e-14"), "adaptive: tol"),
            ("run", CLASSIC_TEXT.replace("1 2; 1 2; 1 2", "1 2; 1 -2; 1 2"), "flow.potentials"),
            ("run", CLASSIC_TEXT + "eps_mode = 5.0\n", "eps_mode"),
            # threads has no effect, but it is still validated
            ("run", CLASSIC_TEXT + "threads = 0\n", "threads"),
            ("run", CLASSIC_TEXT.replace("initial = uniform", "initial = 0 0"), "flow.initial"),
            ("run", ISA_TEXT.replace("lazy-ring 0.5", "1 0 0; 0 1 0; 0 0 1"), "schedule"),
            # integer fields outside [run] are refused, not truncated
            ("adaptive", ADAPTIVE_TEXT.replace("mcmc_iters = 3", "mcmc_iters = 2.5"),
             "adaptive.mcmc_iters"),
            ("adaptive", ADAPTIVE_TEXT.replace("mcmc_iters = 3", "mcmc_iters = true"),
             "adaptive.mcmc_iters"),
            ("run", ISA_TEXT.replace("k0 = 2", "k0 = 2.9"), "schedule.k0"),
            ("run", ISA_TEXT + "steps = 4.7\n", "schedule.steps"),
            (
                "run",
                ISA_TEXT + "mode = bonded\n",
                "schedule.mode must be bounded|decreasing|constant, got 'bonded'",
            ),
            ("run", ISA_TEXT + "mode = 1 2\n", "schedule.mode must be bounded|decreasing|constant"),
            # check levels must be finite and >= 0, whatever the kind and regime
            ("verify-bounds", BOUNDED_TEXT + "y_values = 1 -2\n", "checks.y_values"),
            ("verify-bounds", BOUNDED_TEXT + "y_values = 1 inf\n", "checks.y_values"),
            (
                "verify-bounds",
                CLASSIC_TEXT + "[checks]\nregime = decreasing\ny_values = -1\n",
                "checks.y_values",
            ),
            ("verify-bounds", ISA_TEXT + "[checks]\ny_values = -31.25\n", "checks.y_values"),
            ("verify-bounds", ADAPTIVE_TEXT + "[checks]\ns_values = 0 -0.05\n", "checks.s_values"),
            ("verify-bounds", ADAPTIVE_TEXT + "[checks]\ns_values = nan\n", "checks.s_values"),
            # the adaptive threshold needs y >= 1; the grid is quoted as
            # config text
            (
                "verify-bounds",
                ADAPTIVE_TEXT + "[checks]\ny_values = 0.5 2\n",
                "checks.y_values must be finite numbers >= 1, got '0.5 2'",
            ),
            # the rest of [checks], whatever the kind
            (
                "verify-bounds",
                BOUNDED_TEXT.replace("regime = bounded", "regime = bonded"),
                "checks.regime",
            ),
            ("verify-bounds", BOUNDED_TEXT.replace("a = 0.5", "a = 1.5"), "checks.a"),
            ("verify-bounds", ADAPTIVE_TEXT + "[checks]\na = 1.2\n", "checks.a"),
            ("verify-bounds", BOUNDED_TEXT.replace("g_sup = 2.0", "g_sup = 0.5"), "checks.g_sup"),
            (
                "verify-bounds",
                ISA_TEXT + "[checks]\nepsilon_level = 0.5\neps_prime = 0.75\n",
                "checks.eps_prime",
            ),
        ]
        for command, text, field in cases:
            with pytest.raises(ConfigError):
                parse_config(text)
            bad.write_text(text)
            assert cli_main([command, "--config", str(bad), "--out", str(tmp_path)]) == 2
            assert f"config error: {field}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, text, message",
        [
            # a scalar key given a vector, a float, nothing or an int past int64
            ("run", CLASSIC.replace("kind = classic", "kind = 1 2"), "algorithm.kind"),
            ("verify-bounds", BOUNDED.replace("bounded", "1 2"), "checks.regime"),
            (
                "run",
                ISA.replace("dim = 4", "dim = 1 2"),
                "problem.dim must be an integer >= 1, got '1 2'",
            ),
            ("run", ISA.replace("dim = 4", "dim = inf"), "problem.dim"),
            ("run", ISA.replace("proposal = lazy-ring 0.5", "proposal ="), "problem.proposal"),
            ("adaptive", ADAPTIVE.replace("epsilon = 0.75", "epsilon = 1 2"), "adaptive.epsilon"),
            # a legal number out of range, refused at parse time, not mid-run
            (
                "adaptive",
                ADAPTIVE.replace("mcmc_iters = 3", "mcmc_iters = 3\nbeta0 = -1"),
                "adaptive: beta0 (initial inverse temperature) must be >= 0",
            ),
            ("run", ISA.replace("a = 0.5\nk0", "a = 1 2\nk0"), "schedule.a"),
            ("run", ISA.replace("beta0 = 0.0", "beta0 = 1 2"), "schedule.beta0"),
            ("run", ISA.replace("delta = 0.5", "delta = 1 2"), "schedule.delta"),
            (
                "run",
                CLASSIC.replace("n_particles = 40", "n_particles = 100000000000000000000"),
                "n_particles must be at most 2^63 - 1",
            ),
            # a tuned iteration count past the budget, or past float64
            (
                "run",
                ISA.replace("beta0 = 0.0", "beta0 = 60"),
                "schedule: step 1: required iteration count 5.49047e+26 exceeds 2^63",
            ),
            (
                "run",
                ISA.replace("beta0 = 0.0", "beta0 = 1000"),
                "schedule: step 1: required iteration count inf exceeds 2^63",
            ),
            (
                "run",
                ISA.replace("k0 = 2", "k0 = 10000"),
                "schedule: step 1: required iteration count inf exceeds 2^63",
            ),
            # a run past the exact oracle's step cap, refused before any work
            (
                "run",
                ISA.replace("steps = 4\na", "steps = 20000\na"),
                "schedule.steps = 20000 exceeds the exact oracle's cap of 10000 steps",
            ),
            (
                "run",
                ISA.replace("steps = 4\na", "betas = " + " ".join(["0"] * 10_002) + "\na"),
                "schedule.steps = 10001 exceeds the exact oracle's cap of 10000 steps",
            ),
            (
                "adaptive",
                ADAPTIVE.replace("steps = 4", "steps = 20000"),
                "steps = 20000 exceeds the exact oracle's cap of 10000 steps",
            ),
            # k0 proposal moves past the step cap, refused before the climb
            # over them is walked one move at a time
            (
                "run",
                ISA.replace("k0 = 2", "k0 = 10001"),
                "schedule.k0 = 10001 exceeds the cap of 10000 proposal moves",
            ),
            (
                "verify-bounds",
                ISA.replace("k0 = 2", "k0 = 9000000000000000000"),
                "schedule.k0 = 9000000000000000000 exceeds the cap of 10000 proposal moves",
            ),
            # a declared cap the mode would not read
            (
                "run",
                ISA.replace("k0 = 2", "k0 = 2\ndelta_declared = 0.5"),
                "schedule.delta_declared is read in bounded mode, not constant",
            ),
            (
                "run",
                ISA.replace("mode = constant", "mode = decreasing")
                .replace(GOLDEN_GRID, "betas = 0 0.5 0.9\ndelta_declared = 0.5"),
                "schedule.delta_declared is read in bounded mode, not decreasing",
            ),
            # an energy no adaptive run takes, refused at parse time, not mid-run
            (
                "adaptive",
                ADAPTIVE.replace(GOLDEN_V, "v = 0 0.65 0.8 1.0"),
                "problem.v: reference measure puts mass at V = 0; reference schedule undefined",
            ),
            (
                "verify-bounds",
                VERIFY_ADAPTIVE.replace(GOLDEN_V, "v = 0 0.65 0.8 1.0"),
                "problem.v: reference measure puts mass at V = 0",
            ),
            (
                "adaptive",
                ADAPTIVE.replace(GOLDEN_V, "v = -1 0.65 0.8 1.0")
                .replace("mcmc_iters = 3", "mcmc_iters = 3\nmutation = adaptive"),
                "problem.v: energies must be >= 0 (declared V_min = 0)",
            ),
            (
                "adaptive",
                ADAPTIVE.replace(GOLDEN_V, "v = 1 1 1 1"),
                "adaptive.delta_max: cannot resolve delta_max for a flat energy",
            ),
            # the reference schedule is built at parse time: an energy it
            # cannot be built on names problem.v, in either command
            (
                "adaptive",
                ADAPTIVE.replace(GOLDEN_V, "v = 1e-300 2e-300 3e-300 4e-300"),
                "problem.v: increment solver saturated on the exact law",
            ),
            # e^{Delta V_max} past float64 is c_n = inf, not an OverflowError;
            # the potential exp(-Delta V_max) is then 0
            (
                "adaptive",
                ADAPTIVE.replace(GOLDEN_V, "v = 0.5 0.65 0.8 1e300"),
                "problem.v: potential values must be strictly positive",
            ),
            (
                "verify-bounds",
                VERIFY_ADAPTIVE.replace(GOLDEN_V, "v = 0.5 0.65 0.8 1e300"),
                "problem.v: potential values must be strictly positive",
            ),
            # the adaptive kind keeps each particle with probability
            # e^{-Delta V}, so an eps_mode would change nothing
            ("adaptive", ADAPTIVE + "eps_mode = 0.3\n", "eps_mode is not read by the adaptive kind"),
            (
                "verify-bounds",
                VERIFY_ADAPTIVE.replace("seed = 13", "seed = 13\neps_mode = multinomial"),
                "eps_mode is not read by the adaptive kind",
            ),
            # a [checks] key the config's kind never reads
            ("verify-bounds", BOUNDED + "s_values = 0.3\n",
             "checks.s_values is not read by the classic kind"),
            ("verify-bounds", ISA.replace("y_values = 2", "y_values = 2\na = 0.9"),
             "checks.a is not read by the isa kind"),
            ("verify-bounds", VERIFY_ADAPTIVE + "g_sup = 7\n",
             "checks.g_sup is not read by the adaptive kind"),
        ],
    )
    def test_bad_scalar_keys_are_config_errors(self, command, text, message, tmp_path, capsys):
        # exit 1 is kept for a failed bound check: every one of these is a
        # usage error at parse time, which writes nothing
        with pytest.raises(ConfigError):
            parse_config(text)
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        out = tmp_path / "out"
        assert cli_main([command, "--config", str(bad), "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, text",
        [
            # a decreasing-regime cap whose powers are past float64
            ("verify-bounds", DECREASING.replace("a = 0.5", "a = 0.9999")),
            # an adaptive check without steps
            ("verify-bounds", VERIFY_ADAPTIVE.replace("steps = 4", "steps = 0")),
            # a perturbation constant c_n past float64, and a NaN level
            ("verify-bounds", HUGE_C),
            ("verify-bounds", NAN_LEVEL),
        ],
    )
    def test_legal_edge_configs_verify(self, command, text, tmp_path):
        bad = tmp_path / "edge.cfg"
        bad.write_text(text)
        out = tmp_path / "out"
        assert cli_main([command, "--config", str(bad), "--out", str(out)]) == 0
        assert (out / "verify.csv").is_file()

    @pytest.mark.parametrize("text, level", [(HUGE_C, "inf"), (NAN_LEVEL, "nan")])
    def test_an_infinite_or_nan_level_leaves_the_hypothesis_unmet(self, text, level):
        (row,) = verify_bounds(parse_config(text)).rows
        assert (row.name, row.scope, row.status) == (
            "adaptive-hypothesis", "step=1", "hypothesis-unmet"
        )
        assert repr(row.lhs) == level

    @pytest.mark.parametrize(
        "command, text, message",
        [
            # a composed potential that underflows to 0
            (
                "verify-bounds",
                "[flow]\ninitial = uniform\npotentials = 1e-300 1; 1e-300 1; 1e-300 1\n"
                "kernel = 1 0; 0 1\n\n[algorithm]\nkind = classic\n"
                + RUN.replace("steps = 4", "steps = 3"),
                "error: composed potential has a zero entry; ratio undefined",
            ),
        ],
        ids=["ratio-underflow"],
    )
    def test_input_errors_met_mid_run_are_usage_errors(
        self, command, text, message, tmp_path, capsys
    ):
        # exit 1 is kept for a failed bound check, and nothing escapes as a
        # traceback
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(text)
        out = tmp_path / "out"
        assert cli_main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, refusals",
        [
            (
                RISING_DECREASING,
                [
                    ("decreasing-hypothesis", "g_p,p=2", 1.125, 1.0625),
                    ("decreasing-hypothesis", "g_p,p=3", 1.25, 1.125),
                    ("decreasing-hypothesis", "g_p,p=4", 1.5, 1.25),
                ],
            ),
            (
                RISING_ISA,
                [("optimizer-hypothesis", "p=2", math.exp(1.0000000000005 - 0.5), math.exp(0.5))],
            ),
        ],
        ids=["classic", "isa"],
    )
    def test_rising_decreasing_ratios_are_refused_before_any_draw(
        self, text, refusals, tmp_path, monkeypatch
    ):
        from fkips import engine

        monkeypatch.setattr(engine, "_run_blocks", lambda *a, **k: pytest.fail("replicates ran"))
        cfg_path, out = tmp_path / "c.cfg", tmp_path / "out"
        cfg_path.write_text(text)
        assert cli_main(["verify-bounds", "--config", str(cfg_path), "--out", str(out)]) == 0
        with open(out / "verify.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        unmet = [r for r in rows if r["status"] == "hypothesis-unmet"]
        assert [(r["check"], r["scope"]) for r in unmet[: len(refusals)]] == [
            (name, scope) for name, scope, _, _ in refusals
        ]
        for row, (_, _, lhs, rhs) in zip(unmet, refusals):
            assert (float(row["lhs"]), float(row["rhs"])) == (lhs, rhs)
        assert rows[-1]["status"] == "hypothesis-unmet"

    @pytest.mark.parametrize(
        "text, scopes",
        [
            # every step's ratio is 2.0, above the cap 1.5; every coefficient
            # is 0.1, below its cap 0.5 / 2
            (
                BOUNDED.replace("g_sup = 2.0", "g_sup = 1.5"),
                [f"g_p,p={p}" for p in range(1, 5)],
            ),
            (RISING_DECREASING, ["g_p,p=2", "g_p,p=3", "g_p,p=4"]),
            (RISING_ISA, ["p=2"]),
            # steps 1, 3 and 4 fail, each at its own level
            (VERIFY_ADAPTIVE.replace("a = 0.6", "a = 0.3717"), ["step=1", "step=3", "step=4"]),
        ],
        ids=["uniform", "decreasing", "isa", "adaptive"],
    )
    def test_every_refusal_row_shows_its_violated_condition(self, text, scopes):
        # a refusal row names one violated condition and carries that
        # condition's own lhs and rhs, so none reads as met
        unmet = [r for r in verify_bounds(parse_config(text)).rows if r.status == "hypothesis-unmet"]
        assert [r.scope for r in unmet] == scopes
        assert all(not r.lhs <= r.rhs for r in unmet)

    def test_uniform_refusal_rows_carry_each_ratio_and_coefficient(self):
        # identity kernels (b_p = 1) under ratios 1.2, 1.5: one row per ratio
        # above the cap 1.3, then one per coefficient above a / (a + 1.3)
        flow = FlowSpec(uniform_law(2), [[1.0, 1.2], [1.0, 1.5]], [np.eye(2)] * 2)
        rows = check_regime(flow, "bounded", 0.5, 1.3, 50, 10, seed=4).rows
        cap = 0.5 / 1.8
        assert [(r.scope, r.lhs, r.rhs, r.status) for r in rows] == [
            ("g_p,p=2", 1.5, 1.3, "hypothesis-unmet"),
            ("p=1", 1.0, cap, "hypothesis-unmet"),
            ("p=2", 1.0, cap, "hypothesis-unmet"),
        ]

    def test_adaptive_mutation_needs_no_reference_schedule(self, tmp_path, capsys):
        # mass at V = 0 leaves the reference schedule undefined: adaptive
        # mutation runs without it, a bound check reads it
        text = VERIFY_ADAPTIVE.replace(GOLDEN_V, "v = 0 0.65 0.8 1.0").replace(
            "mcmc_iters = 3", "mcmc_iters = 3\nmutation = adaptive"
        )
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(text)
        run_out, verify_out = tmp_path / "run", tmp_path / "verify"
        assert cli_main(["adaptive", "--config", str(cfg_path), "--out", str(run_out)]) == 0
        assert (run_out / "raw.csv").is_file()
        assert cli_main(
            ["verify-bounds", "--config", str(cfg_path), "--out", str(verify_out)]
        ) == 2
        assert "config error: problem.v: reference measure puts mass at V = 0" in (
            capsys.readouterr().err
        )
        assert not verify_out.exists()

    @pytest.mark.parametrize("mode", ["bounded", "decreasing", "constant"])
    @pytest.mark.parametrize("command", ["run", "verify-bounds"])
    def test_both_spellings_of_the_grid_write_the_same_bytes(self, mode, command, tmp_path):
        # beta0/delta/steps is beta0 + k delta written out, and the mode is
        # honoured in both spellings
        outs = []
        for spelling in (GOLDEN_GRID, "betas = 0 0.5 1 1.5 2"):
            text = ISA.replace("mode = constant", f"mode = {mode}").replace(GOLDEN_GRID, spelling)
            cfg_path, out = tmp_path / "c.cfg", tmp_path / str(len(outs))
            cfg_path.write_text(text)
            assert cli_main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
            outs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outs[0] == outs[1]
        assert set(outs[0]) == ({"verify.csv"} if command == "verify-bounds" else {
            "raw.csv", "stats.csv", "oracle.csv"
        })

    @pytest.mark.parametrize("spelling", [GOLDEN_GRID, "betas = 0 0.5 1 1.5 2"])
    @pytest.mark.parametrize(
        "mode, iters",
        [("constant", (5, 8, 14, 22)), ("bounded", (5, 8, 14, 22)), ("decreasing", (4, 7, 11, 18))],
    )
    def test_tuned_mcmc_iters_are_pinned(self, mode, iters, spelling):
        # no output digest sees the tuned counts: at the golden N and R every
        # optimizer exceedance frequency is 0 whatever the kernels
        text = ISA.replace("mode = constant", f"mode = {mode}").replace(GOLDEN_GRID, spelling)
        assert parse_config(text).isa.mcmc_iters == iters

    def test_blank_kernel_rows_name_the_field(self, tmp_path, capsys):
        # numpy's text reader skips blank rows, which would leave a well
        # shaped table behind a trailing ";" or an inserted blank row
        text = flow_to_config(bounded_regime_flow(2, dim=3, seed=1))
        line = next(ln for ln in text.splitlines() if ln.startswith("kernels = "))
        bad = tmp_path / "bad.cfg"
        for broken in (line + ";", line.replace("; ", "; ; ", 1)):
            bad.write_text(text.replace(line, broken))
            assert cli_main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
            assert "config error: flow.kernels" in capsys.readouterr().err

    def test_config_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"[run]\nseed = 1\n# \xff\n")
        assert cli_main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert f"config error: {bad}: not UTF-8 text at byte 17" in capsys.readouterr().err

    def test_run_writes_deterministic_outputs(self, tmp_path):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(CLASSIC_TEXT)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert cli_main(
            ["run", "--config", str(cfg_path), "--out", str(out2), "--threads", "8"]
        ) == 0
        for name in ("raw.csv", "stats.csv", "oracle.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("text", [CLASSIC, ISA], ids=["classic", "isa"])
    def test_omitted_steps_run_the_whole_flow(self, text, tmp_path):
        # both golden flows have T = 4 and say steps = 4 in [run]; without
        # the key the run covers steps 0..4 and writes the same bytes
        cfg_path = tmp_path / "c.cfg"
        given, omitted = tmp_path / "given", tmp_path / "omitted"
        for out, run_block in ((given, RUN), (omitted, RUN.replace("steps = 4\n", ""))):
            cfg_path.write_text(text.replace(RUN, run_block))
            assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        raw = (omitted / "raw.csv").read_text()
        assert {line.split(",")[1] for line in raw.splitlines()[1:]} == set("01234")
        for name in ("raw.csv", "stats.csv", "oracle.csv"):
            assert (omitted / name).read_bytes() == (given / name).read_bytes()

    @pytest.mark.parametrize("text", [CLASSIC, ISA], ids=["classic", "isa"])
    def test_steps_run_that_many_and_no_more_than_the_flow(self, text, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(text.replace(RUN, RUN.replace("steps = 4", "steps = 2")))
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "two")]) == 0
        raw = (tmp_path / "two" / "raw.csv").read_text()
        assert {line.split(",")[1] for line in raw.splitlines()[1:]} == set("012")
        capsys.readouterr()
        cfg_path.write_text(text.replace(RUN, RUN.replace("steps = 4", "steps = 5")))
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "five")]) == 2
        assert "config error: steps = 5 exceeds the flow's 4 steps" in capsys.readouterr().err
        assert not (tmp_path / "five").exists()

    @pytest.mark.parametrize("command", ["adaptive", "verify-bounds"])
    def test_adaptive_config_must_give_steps(self, command, tmp_path, capsys):
        # an adaptive config has no flow to take its length from
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(ADAPTIVE.replace("steps = 4\n", ""))
        out = tmp_path / "out"
        assert cli_main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "config error: steps is required" in capsys.readouterr().err
        assert not out.exists()

    def test_raw_rows_independent_of_replicate_count(self, tmp_path):
        # each short count and the long one sit on either side of a block
        # boundary; d = 10 puts every per-row sum on numpy's pairwise path,
        # and a 2-row block is where a BLAS product over the block has
        # been seen to round differently
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(flow_to_config(bounded_regime_flow(5, dim=10), n_particles=300, seed=3))
        lines = {}
        for reps in (2, BLOCK - 3, BLOCK + 5):
            out = tmp_path / f"r{reps}"
            argv = ["run", "--config", str(cfg_path), "--out", str(out), "--replicates", str(reps)]
            assert cli_main(argv) == 0
            lines[reps] = (out / "raw.csv").read_bytes().splitlines()
            assert len(lines[reps]) == 1 + reps * 6
        for reps in (2, BLOCK - 3):
            assert lines[BLOCK + 5][: len(lines[reps])] == lines[reps]

    def test_adaptive_raw_rows_independent_of_replicate_count(self, tmp_path):
        # as above for the adaptive count engine: ten states put every
        # per-row sum, the Newton solve's included, on numpy's pairwise path
        v = " ".join(str(0.1 + 0.09 * i) for i in range(10))
        cfg_path = tmp_path / "a.cfg"
        cfg_path.write_text(
            ADAPTIVE_TEXT.replace("dim = 4", "dim = 10")
            .replace("v = 0.5 0.65 0.8 1.0", f"v = {v}")
            .replace("replicates = 6", "replicates = 1")
        )
        lines = {}
        for reps in (2, BLOCK - 3, BLOCK + 5):
            out = tmp_path / f"r{reps}"
            argv = ["adaptive", "--config", str(cfg_path), "--out", str(out)]
            assert cli_main(argv + ["--replicates", str(reps)]) == 0
            lines[reps] = (out / "raw.csv").read_bytes().splitlines()
            assert len(lines[reps]) == 1 + reps * 4
        for reps in (2, BLOCK - 3):
            assert lines[BLOCK + 5][: len(lines[reps])] == lines[reps]

    def test_adaptive_subcommand_enforces_kind(self, tmp_path):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(CLASSIC_TEXT)
        assert cli_main(["adaptive", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2

    def test_oracle_subcommand(self, tmp_path):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(CLASSIC_TEXT)
        assert cli_main(["oracle", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        text = (tmp_path / "oracle.csv").read_text()
        assert text.splitlines()[0].startswith("step,log_gamma1,gamma1")

    def test_tune_subcommand(self, capsys):
        assert cli_main(["tune", "--a", "0.5", "--g-sup", "1.0", "--particles", "100"]) == 0
        out = capsys.readouterr().out
        assert "r1_star=" in out and "b_max=" in out

    @pytest.mark.parametrize(
        "flags, stdout, csv_rows",
        [
            # the uniform-regime constants
            (
                ["--g-sup", "2", "--particles", "100"],
                "in.g_sup=2.0\nin.n_particles=100\n"
                "r1_star=60.776323486786382\nr2_star=229.52632348678637\n"
                "rt1=200\nrt2=16\nb_max=0.20000000000000001\n",
                "r1_star,60.776323486786382\nr2_star,229.52632348678637\n"
                "rt1,200\nrt2,16\nb_max,0.20000000000000001\n",
            ),
            # m_p in the bounded and in the decreasing regime
            (
                ["--beta", "1", "--gap", "1", "--delta", "0.5", "--delta-osc", "0.5"],
                "in.beta=1.0\nin.gap=1.0\nin.delta=0.5\nin.delta_osc=0.5\nin.mode=bounded\n"
                "m_p=8\n",
                "m_p,8\n",
            ),
            (
                ["--beta", "1", "--gap", "1", "--delta", "0.5", "--delta-osc", "0.5", "--decreasing"],
                "in.beta=1.0\nin.gap=1.0\nin.delta=0.5\nin.delta_osc=0.5\nin.mode=decreasing\n"
                "m_p=7\n",
                "m_p,7\n",
            ),
            (
                ["--osc-v", "2", "--gap", "1.5"],
                "in.osc_v=2.0\nin.gap=1.5\ncritical_delta_beta=0.48067562886696097\n",
                "critical_delta_beta,0.48067562886696097\n",
            ),
        ],
        ids=["bounded-constants", "m_p-bounded", "m_p-decreasing", "critical-delta-beta"],
    )
    def test_tune_output_bytes(self, flags, stdout, csv_rows, tmp_path, capsys):
        # inputs echo as given, values print at 17 significant digits, and
        # tune.csv holds one tune row per value
        out = tmp_path / "t"
        assert cli_main(["tune", "--a", "0.5", *flags, "--out", str(out)]) == 0
        path = out / "tune.csv"
        assert capsys.readouterr().out == f"name=tune\nin.a=0.5\n{stdout}wrote {path}\n"
        rows = "".join(f"tune,{row}\n" for row in csv_rows.splitlines())
        assert path.read_bytes() == f"name,key,value\n{rows}".encode()

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--a", "1.5", "--g-sup", "2", "--particles", "100"], "--a"),
            (["--a", "0.5", "--g-sup", "0.5", "--particles", "100"], "--g-sup"),
            (["--a", "0.5", "--osc-v", "0", "--gap", "1"], "--osc-v"),
            (["--a", "0.5", "--osc-v", "1", "--gap", "0"], "--gap"),
            (["--a", "0.5", "--beta", "1", "--gap", "1", "--delta", "0.5"], "--delta-osc"),
            # flags in range whose results leave float64 or the 2^63 budget
            (["--a", "0.5", "--g-sup", "1e200", "--particles", "100"], "--g-sup"),
            (
                ["--a", "0.5", "--beta", "100", "--gap", "1", "--delta", "0.5", "--delta-osc", "1"],
                "--beta",
            ),
            (["--a", "0.5", "--osc-v", "1e-200", "--gap", "1e-200"], "--osc-v"),
        ],
    )
    def test_tune_refuses_bad_flags_as_usage_errors(self, flags, named, capsys):
        # argparse ends a usage error with exit status 2, naming the flag
        with pytest.raises(SystemExit) as exc:
            cli_main(["tune", *flags])
        assert exc.value.code == 2
        assert f"argument {named}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command, output", [("verify-bounds", "verify.csv"), ("run", "raw.csv")])
    def test_seed_flag_builds_the_flow_once(self, command, output, tmp_path, monkeypatch):
        # the flag is merged into [run] before the one config assembly, and
        # the output equals that of a file that says seed = 5; the isa
        # verify rows do not depend on the seed, so raw.csv shows the flag
        # took effect
        calls = []
        build = annealing.build_isa_flow

        def counted(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(annealing, "build_isa_flow", counted)
        flagged, edited = tmp_path / "flagged.cfg", tmp_path / "edited.cfg"
        flagged.write_text(ISA)
        edited.write_text(ISA.replace("seed = 13", "seed = 5"))
        argv = [command, "--config", str(flagged), "--out", str(tmp_path / "f")]
        assert cli_main(argv + ["--seed", "5"]) == 0
        assert len(calls) == 1
        assert cli_main([command, "--config", str(edited), "--out", str(tmp_path / "e")]) == 0
        got = (tmp_path / "f" / output).read_bytes()
        assert got == (tmp_path / "e" / output).read_bytes()
        if command == "run":
            assert cli_main(argv[:-1] + [str(tmp_path / "s13")]) == 0
            assert got != (tmp_path / "s13" / output).read_bytes()

    def test_flag_replaces_a_bad_file_value(self, tmp_path, capsys):
        # a [run] flag is merged before validation, so it stands in for a
        # bad value in the file, which is an error only without the flag
        bad = tmp_path / "bad.cfg"
        bad.write_text(CLASSIC_TEXT.replace("seed = 7", "seed = -1"))
        good = tmp_path / "good.cfg"
        good.write_text(CLASSIC_TEXT)
        assert cli_main(["run", "--config", str(bad), "--out", str(tmp_path / "b")]) == 2
        assert "config error: seed" in capsys.readouterr().err
        argv = ["run", "--config", str(bad), "--out", str(tmp_path / "f"), "--seed", "7"]
        assert cli_main(argv) == 0
        assert cli_main(["run", "--config", str(good), "--out", str(tmp_path / "g")]) == 0
        for name in ("raw.csv", "stats.csv", "oracle.csv"):
            assert (tmp_path / "f" / name).read_bytes() == (tmp_path / "g" / name).read_bytes()

    def test_particle_override(self, tmp_path):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(CLASSIC_TEXT)
        out = tmp_path / "o"
        assert cli_main(
            ["run", "--config", str(cfg_path), "--out", str(out), "--particles", "10"]
        ) == 0
        first_rows = (out / "raw.csv").read_text().splitlines()[1]
        assert first_rows.split(",")[5] == "10"  # initial ess equals N
