"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from checks import check_properties, check_table, parse_table  # noqa: E402
from run import WORKLOADS, Child, Runner, table_expectations, write_config  # noqa: E402
from tracing import Span, Tracer, install_targets, self_times, span_metrics  # noqa: E402

ERRORS = [0.013, 0.0072, 0.0043, 0.0040, 0.0024]
STDERRS = [1.1e-3, 6.4e-4, 3.7e-4, 4.0e-4, 2.1e-4]
DTS = [1 / 25, 1 / 50, 1 / 100, 1 / 125, 1 / 200]


def _csv(errors, stderrs=STDERRS, alpha=1.1, m_traj=64, seed=1):
    lines = [f"# alpha = {alpha}", "# beta = 0.75", f"# m_traj = {m_traj}",
             f"# seed = {seed}", "# build = v0-3-gabc", "resolution,error,rate,stderr"]
    lines += [f"{dt!r},{e!r},,{s!r}" for dt, e, s in zip(DTS, errors, stderrs)]
    return "\n".join(lines) + "\n"


def _expect(m_traj=64, seed=1):
    return {"alpha": 1.1, "beta": 0.75, "m_traj": m_traj, "seed": seed, "resolutions": DTS}


def test_pinned_check_passes_recorded_values(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(_csv(ERRORS))
    ref = {"error": ERRORS, "stderr": STDERRS}
    assert check_table(str(path), _expect(), ref, 1e-12) is None


@pytest.mark.parametrize("column", ["error", "stderr"])
def test_perturbed_value_fails_pinned_check(tmp_path, column):
    errors, stderrs = list(ERRORS), list(STDERRS)
    (errors if column == "error" else stderrs)[2] *= 1 + 1e-9
    path = tmp_path / "t.csv"
    path.write_text(_csv(errors, stderrs))
    msg = check_table(str(path), _expect(), {"error": ERRORS, "stderr": STDERRS}, 1e-10)
    assert msg is not None and f"{column}[2]" in msg


def test_wrong_metadata_or_missing_file_fails(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(_csv(ERRORS, seed=2))
    assert "seed" in check_table(str(path), _expect(), None, 1e-12)
    assert check_table(str(tmp_path / "absent.csv"), _expect(), None, 1e-12) is not None


def test_property_checks():
    table = parse_table(_csv(ERRORS))
    assert check_properties(table, 64) is None
    rising = parse_table(_csv([0.013, 0.0072, 0.0072, 0.0040, 0.0024]))
    assert "strictly fall" in check_properties(rising, 64)
    assert "positive" in check_properties(parse_table(_csv([0.0] + ERRORS[1:])), 64)
    exact = [(e * e, (e * e) ** 2) for e in ERRORS]
    assert check_properties(table, 64, exact) is None
    off = [(m * 4.0, v) for m, v in exact]
    assert "exact SEs" in check_properties(table, 64, off)
    # with exact moments, sampling noise may reorder close rows, not the means
    swapped = parse_table(_csv([0.013, 0.0072, 0.0043, 0.0044, 0.0024]))
    assert "strictly fall" in check_properties(swapped, 64)
    assert check_properties(swapped, 64, exact) is None
    flat = [exact[0], exact[0]] + exact[2:]
    assert "exact mean squared errors" in check_properties(table, 64, flat)


def test_nonzero_exit_fails_every_table(tmp_path):
    wl = WORKLOADS["table2"]
    runner = Runner(wl, tmp_path, {"seed": 1, "tables": {}})
    log = tmp_path / "cmd.log"
    log.write_text("error: boom\n")
    out = tmp_path / "out"
    out.mkdir()
    runner.check(Child(1.0, 1.0, 1.0, 2), out, wl.m_traj, 5, log)
    n_tables = len(table_expectations(wl, wl.m_traj, 5))
    assert runner.attempted == n_tables == 3
    assert len(runner.failures) == n_tables
    assert all("exit code 2" in msg for msg in runner.failures)


def test_config_file_reaches_the_program(tmp_path):
    cli = pytest.importorskip("fracwave.cli")
    for wl in WORKLOADS.values():
        path = tmp_path / f"{wl.name}.cfg"
        write_config(path, wl, 7, 42)
        assert cli._parse_config(str(path)) == dict(wl.knobs, m_traj=7, seed=42)


def test_self_times_on_hand_built_tree():
    spans = [
        Span("cli.main", 0.0, 10.0),
        Span("experiments.table", 1.0, 9.0, parent=0),
        Span("spectral.convolution_weights", 2.0, 5.0, parent=1),
        Span("ml.kernel_weights", 2.5, 4.5, parent=2),
        Span("ml.ml_values", 3.0, 4.0, parent=3, attrs={"args": 100, "contour_args": 60,
                                                       "max_abs_z": 7.5}),
        Span("noise.generate", 6.0, 8.0, parent=1, attrs={"bytes": 80}),
        Span("cli.write", 9.5, 9.75, parent=0),
        Span("probe.philox", 10.0, 10.5),
    ]
    assert self_times(spans) == pytest.approx([1.75, 3.0, 1.0, 1.0, 1.0, 2.0, 0.25, 0.5])
    m = span_metrics(spans)
    assert m["experiments.setup_self_s"] == pytest.approx(3.0)
    assert m["spectral.weights_self_s"] == pytest.approx(1.0)
    assert m["ml.busy_s"] == pytest.approx(2.0)
    assert m["ml.self_s"] == pytest.approx(2.0)
    assert m["ml.args"] == 100 and m["ml.contour_args"] == 60 and m["ml.max_abs_z"] == 7.5
    assert m["ml.args_per_s"] == pytest.approx(100.0)
    assert m["noise.bytes_per_traj"] == 80
    assert m["cli.write_s"] == pytest.approx(0.25)
    assert m["noise.philox_setup_ms"] == pytest.approx(500.0)
    assert m["noise.draw_ms"] == pytest.approx(1500.0)
    layers = ("cli", "experiments", "spectral", "ml", "fem", "noise")
    assert sum(m[f"{layer}.self_s"] for layer in layers) == pytest.approx(10.0)


def test_overlapping_children_are_counted_once():
    spans = [Span("a.x", 0.0, 10.0), Span("b.y", 1.0, 4.0, parent=0),
             Span("b.z", 3.0, 6.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_tracer_records_nested_spans():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    mod = types.SimpleNamespace(inner=lambda x: x + 1)
    mod.outer = lambda x: mod.inner(x) * 2
    assert tracer.install(mod, "inner", "ml.inner", lambda a, k, r: {"arg": a[0]})
    assert tracer.install(mod, "outer", "spectral.outer")
    assert mod.outer(3) == 8
    (outer, inner) = tracer.spans
    assert (outer.name, outer.parent, inner.name, inner.parent) == (
        "spectral.outer", -1, "ml.inner", 0)
    assert inner.attrs == {"arg": 3}
    assert outer.start < inner.start < inner.end < outer.end


def test_missing_wrapped_function_gives_zero_counts():
    tracer = Tracer()
    missing = install_targets(tracer, (
        ("json", "no_such_function", "noise.generate", None),
        ("no_such_module_for_bench", "generate", "noise.generate", None),
    ))
    assert missing == ["json.no_such_function", "no_such_module_for_bench.generate"]
    m = span_metrics(tracer.spans)
    assert m["noise.generate_ms.p50"] == 0 and m["noise.bytes_per_traj"] == 0
    assert m["fem.meshes"] == 0 and m["experiments.traj_self_ms"] == 0
