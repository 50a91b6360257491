"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import hashlib
import json
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- percentile rule ---------------------------------------------------------

def test_tail_leaves_ten_samples_beyond():
    values = [float(v) for v in range(1, 31)]          # 30 samples
    value, pct, n = stats.tail(values)
    assert n == 30
    assert sum(v > value for v in values) == 10
    assert value == 20.0
    assert pct == pytest.approx(100 * 20 / 30)


def test_tail_with_eleven_samples_is_the_minimum():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0]
    assert stats.tail(values) == (1.0, pytest.approx(100 / 11), 11)


def test_tail_with_fewer_than_eleven_samples_reports_the_maximum():
    for n in (1, 4, 10):
        values = [float(v) for v in range(n)]
        assert stats.tail(values) == (float(n - 1), 100.0, n)
    with pytest.raises(ValueError):
        stats.tail([])


def test_quartile_spread():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    q1, q2, q3 = 2.75, 5.5, 8.25                      # quantiles of 1..10
    assert stats.quartile_spread([float(v) for v in range(1, 11)]) == \
        pytest.approx((q3 - q1) / q2)


# -- self-time arithmetic ----------------------------------------------------

def test_self_times_on_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9];
    # d [6, 7] is a child of c
    spans = [["root", 0.0, 10.0, -1, "v"],
             ["a", 1.0, 4.0, 0, "v"],
             ["b", 2.0, 3.0, 1, "v"],
             ["c", 5.0, 9.0, 0, "v"],
             ["d", 6.0, 7.0, 3, "v"]]
    own = tracing.self_times(spans)
    assert own == pytest.approx([3.0, 2.0, 1.0, 3.0, 1.0])
    assert sum(own) == pytest.approx(10.0)


def test_layer_table_and_ratios_from_a_tracer():
    tracer = tracing.Tracer()
    proportional = tracer.wrap("invariance.proportional",
                               lambda a, b: None if a != b else 1)
    tracer.verdict = "v"
    tracer.span(tracing.VERDICT_SPAN,
                lambda: [proportional(i, 2) for i in range(4)])
    metrics = tracing.per_layer_metrics(tracer.spans, tracer.counters)
    assert metrics["invariance.proportional.calls"] == 4
    assert metrics["invariance.proportional.hit_ratio"] == 0.25
    assert metrics["bench.verdict.calls"] == 1
    assert metrics["simulator.rhs_per_s"] == 0.0
    total = sum(tracing.self_times(tracer.spans))
    root = tracer.spans[0]
    assert total == pytest.approx(root[2] - root[1])


# -- mismatch scoring --------------------------------------------------------

def _round(rows):
    return {"wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 100.0,
            "verdicts": rows}


def test_doctored_expected_report_is_a_mismatch():
    rows = [{"id": f"v{i}", "seconds": 0.1 * (i + 1), "ok": True,
             "hash": f"h{i}", "error": None} for i in range(12)]
    expected = {r["id"]: r["hash"] for r in rows}
    metrics, attempted, failed, _ = run.end_to_end([_round(rows)], [1.0] * 3,
                                                   expected)
    assert (attempted, failed, metrics["match_ratio"]) == (12, 0, 1.0)

    doctored = dict(expected, v3="not-the-seed-report")
    metrics, attempted, failed, _ = run.end_to_end([_round(rows)], [1.0] * 3,
                                                   doctored)
    assert failed == 1 and metrics["match_ratio"] == pytest.approx(1 - 1 / 12)


def test_verdict_times_do_not_depend_on_the_number_of_rounds():
    # 12 verdicts a round, so the tail is each round's 2nd fastest verdict;
    # pooled over three rounds it would be the 26th of 36
    rows = [{"id": f"v{i}", "seconds": float(i + 1), "ok": True,
             "hash": "h", "error": None} for i in range(12)]
    expected = {r["id"]: "h" for r in rows}
    one, *_ = run.end_to_end([_round(rows)], [1.0], expected)
    fast = [dict(r, seconds=r["seconds"] / 2) for r in rows]
    three, attempted, _, _ = run.end_to_end(
        [_round(rows), _round(rows), _round(fast)], [1.0], expected)
    assert attempted == 36
    assert one["verdict_tail_s"] == three["verdict_tail_s"] == 2.0
    assert one["verdict_p50_s"] == three["verdict_p50_s"] == 6.5


def test_failed_check_raise_or_unrecorded_verdict_is_a_mismatch():
    good = {"id": "a", "seconds": 1.0, "ok": True, "hash": "h", "error": None}
    rows = [good,
            dict(good, id="b", ok=False),
            dict(good, id="c", error="Traceback ..."),
            dict(good, id="d")]
    expected = {"a": "h", "b": "h", "c": "h"}
    assert [v["id"] for v in run.mismatches(rows, expected)] == ["b", "c", "d"]


def test_real_verdict_matches_the_recorded_report_and_a_doctored_one_does_not():
    sys.path.insert(0, str(ROOT / "src"))
    from sktsym import catalog, cli, expr, invariance, jet, simulator, solutions
    from workloads import catalog_setup

    sk = types.SimpleNamespace(expr=expr, jet=jet, invariance=invariance,
                               catalog=catalog, cli=cli, solutions=solutions,
                               simulator=simulator)
    verdicts = dict(catalog_setup(sk, seed=0))
    ok, report = verdicts["entry-1-5"]()
    row = {"id": "entry-1-5", "seconds": 0.1, "ok": ok, "error": None,
           "hash": hashlib.sha256(report.encode()).hexdigest()}
    expected = json.loads(run.EXPECTED.read_text())["catalog"]
    assert run.mismatches([row], expected) == []
    doctored = {"entry-1-5": hashlib.sha256(
        report.replace("True", "False").encode()).hexdigest()}
    assert run.mismatches([row], doctored) == [row]


# -- names and the benchmark definition --------------------------------------

def test_metric_names_and_units_are_well_formed():
    names = list(run.E2E_UNITS.items()) + tracing.per_layer_names()
    assert len({n for n, _ in names}) == len(names)
    for name, unit in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert UNIT.fullmatch(unit), unit


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        tracing.per_layer_names()
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert all(m["bound"] <= setup["bound"] <= 0.25 for m in spec["end_to_end"])


def test_workload_names_match_the_definitions():
    from workloads import WORKLOADS
    assert tuple(WORKLOADS) == run.WORKLOAD_NAMES


def test_install_rebinds_every_module_that_imports_a_wrapped_function():
    # a fresh interpreter, so that the wrapping does not leak into other tests
    code = f"""
import sys, types
sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]
import tracing
from sktsym import catalog, cli, expr, invariance, jet, simulator, solutions
mods = dict(expr=expr, jet=jet, invariance=invariance, catalog=catalog,
            cli=cli, solutions=solutions, simulator=simulator)
originals = {{id(getattr(mods[m], q)) for m, names in tracing.LAYERS.items()
              for q in names if "." not in q}}
tracing.install(tracing.Tracer(), mods)
left = [f"{{name}}.{{k}}" for name, mod in mods.items()
        for k, v in vars(mod).items() if id(v) in originals]
assert not left, left
assert invariance.prolong2 is jet.prolong2 and invariance.prolong2.__wrapped__
assert catalog.check_invariance is invariance.check_invariance
assert cli.Catalog.load.__func__.__wrapped__
print("ok")
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_run_refuses_a_directory_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "perfbench" / "expected.json").write_text(run.EXPECTED.read_text())
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "catalog", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
