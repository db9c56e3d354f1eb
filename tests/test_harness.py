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
from fkips.flow import FlowSpec
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
from fkips.measures import FiniteDistribution, KernelMatrix, PotentialVector

from .configs import flow_to_config, serialize_config
from .instances import bounded_regime_flow, table_check_flows
from .oracles import oracle_identity_gaps, parse_sections_by_lines, parse_value_by_floats
from .test_golden import BOUNDED, CLASSIC, DECREASING, ISA
from .test_tooling import _workloads

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
        assert cfg.eps_mode == "auto" and cfg.threads == 1
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
        assert np.allclose(rebuilt.initial.weights, flow.initial.weights)
        for (g1, k1), (g2, k2) in zip(rebuilt.steps, flow.steps):
            assert np.allclose(g1.values, g2.values, rtol=1e-15)
            assert np.allclose(k1.rows, k2.rows, rtol=1e-15)


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
            parse_config(text).flow
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(text)


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
        reader = csv.DictReader(io.StringIO(result.raw_csv))
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
        assert len({o.raw_csv for o in outs} | {again.raw_csv}) == 1
        assert len({o.stats_csv for o in outs}) == 1

    def test_adaptive_kind_runs(self):
        cfg = parse_config(ADAPTIVE_TEXT)
        result = run_experiment(cfg)
        assert "delta" in result.raw_csv.splitlines()[0]
        assert result.oracle_csv is None

    def test_aggregation_matches_recomputation_from_raw(self):
        cfg = parse_config(CLASSIC_TEXT)
        result = run_experiment(cfg)
        reader = csv.DictReader(io.StringIO(result.raw_csv))
        values = {}
        for row in reader:
            values.setdefault(int(row["step"]), []).append(float(row["log_gamma1"]))
        j = result.stats.names.index("log_gamma1")
        for step, vals in values.items():
            arr = np.asarray(vals)
            assert result.stats.mean[step, j] == arr.mean()
            assert result.stats.se[step, j] == arr.std(ddof=1) / math.sqrt(arr.size)


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
                assert stats.replicates == r
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
            "import fkips\n"
            "print('resolved:', fkips.optimize.__module__, fkips.AdaptiveConfig.__module__)\n"
            "print('all:', all(getattr(fkips, n) is not None for n in fkips.__all__))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(fkips.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(run_cfg), str(verify_cfg), str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[-3:] == [
            "loaded:", "resolved: fkips.annealing fkips.adaptive", "all: True"
        ]


class TestEmitCsv:
    def test_header_only_and_re_emission(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv("step,stat\n", path)
        assert path.read_text() == "step,stat\n"
        emit_csv("step,stat\n", path)
        assert path.read_text() == "step,stat\n"

    def test_two_line_file(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv("step,value\n0,1.5\n", path)
        assert path.read_text().splitlines() == ["step,value", "0,1.5"]


class TestVerifyDispatch:
    def test_degenerate_flow_trivially_passes(self):
        # unit potentials and rank-one kernels: every deviation is zero
        flow = FlowSpec(
            FiniteDistribution.uniform(3),
            ((PotentialVector.constant(3), KernelMatrix.uniform(3)),) * 3,
        )
        report = check_regime(flow, "bounded", 0.5, 1.0, 50, 20, seed=3)
        assert report.hypothesis_ok and report.all_pass

    def test_hypothesis_unmet_is_not_a_failure(self):
        # identity kernels break the mixing cap: rows must say so
        flow = FlowSpec(
            FiniteDistribution.uniform(2),
            ((PotentialVector([1.0, 1.2]), KernelMatrix.identity(2)),) * 2,
        )
        report = check_regime(flow, "bounded", 0.5, 1.2, 50, 10, seed=4)
        assert not report.hypothesis_ok
        assert all(r.status == "hypothesis-unmet" for r in report.rows)
        assert not report.failures()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_oracle_identity_rows(self):
        report = check_oracle_identity(bounded_regime_flow(4, seed=50))
        assert report.all_pass

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
        assert report.hypothesis_ok
        assert report.all_pass
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
