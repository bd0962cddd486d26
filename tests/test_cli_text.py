"""The text output of every subcommand carries the values of its JSON report.

Each subcommand runs on the demo configs in both output modes, and the text
is read against the JSON report of the same call.  The expected strings are
built from that report, never written out, so the checks hold on any numpy
and BLAS build.
"""

import json
from pathlib import Path

import pytest

from glmdopt import cli

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "demos" / "configs").glob("*.json"))
BETA = [c for c in CONFIGS if "beta" in json.loads(c.read_text())]
PRIOR = [c for c in CONFIGS if "prior" in json.loads(c.read_text())]


def both_modes(capsys, *argv):
    """(JSON report, text lines) of one call in each output mode."""
    code = cli.main([*argv, "--out", "json"])
    report = json.loads(capsys.readouterr().out)
    assert cli.main([*argv, "--out", "text"]) == code
    return report, capsys.readouterr().out.splitlines()


def optimal_allocation(capsys, tmp_path, cfg):
    """The allocation file of the lift-one (or, under a prior, 'ew') design."""
    command = "optimize" if cfg in BETA else "ew"
    report, _ = both_modes(capsys, command, "--config", str(cfg))
    path = tmp_path / "p.txt"
    path.write_text("".join(f"{v!r}\n" for v in report["p"]))
    return path


def test_both_sources_are_among_the_demos():
    assert BETA and PRIOR and len(BETA) + len(PRIOR) == len(CONFIGS)


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.stem)
def test_weights_rows(capsys, cfg):
    report, lines = both_modes(capsys, "weights", "--config", str(cfg))
    if "weights" in report:
        w, eta = report["weights"], report["eta"]
        assert lines[0].split() == ["row", "eta", "weight"]
    else:
        w, eta = report["expected_weights"], None
        assert lines[0] == f"expected weights ({report['method']})"
        assert lines[1].split() == ["row", "weight"]
    rows = lines[-len(w):]
    assert len(lines) == len(w) + (1 if eta else 2)
    for i, row in enumerate(rows):
        cells = row.split()
        assert int(cells[0]) == i
        assert float(cells[-1]) == pytest.approx(w[i], rel=1e-5)
        if eta:
            assert float(cells[1]) == pytest.approx(eta[i], abs=5e-4)


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.stem)
def test_optimize_and_ew_report_lines(capsys, cfg):
    command = "optimize" if cfg in BETA else "ew"
    report, lines = both_modes(capsys, command, "--config", str(cfg))
    assert report["command"] == command
    if command == "ew":
        head, _, values = lines.pop(0).partition(": ")
        assert head == f"expected weights ({report['method']})"
        assert [float(v) for v in values.split()] == pytest.approx(
            report["expected_weights"], abs=5e-4)
    assert [float(v) for v in lines[0].partition(": ")[2].split()] == pytest.approx(
        report["p"], abs=5e-4)
    assert json.loads(lines[1].partition(": ")[2]) == report["p"]
    assert lines[2] == f"f = {report['f']!r}"
    assert lines[3] == f"rounds = {report['rounds']}, polish steps = {report['polish_steps']}"
    assert lines[4] == (f"converged = {report['converged']}, "
                        f"certificate optimal = {report['optimal']}")
    assert len(lines) == 5


@pytest.mark.parametrize("cfg", [c for c in BETA if "total" in json.loads(c.read_text())],
                         ids=lambda c: c.stem)
def test_exact_report_lines(capsys, cfg):
    report, lines = both_modes(capsys, "exact", "--config", str(cfg))
    assert lines[0].startswith("n: ")
    assert [int(v) for v in lines[0][3:].split()] == report["n"]
    assert lines[1] == f"total = {report['total']}"
    assert lines[2] == f"f = {report['f']!r}"
    assert len(lines) == 3


@pytest.mark.parametrize("optimal", [True, False], ids=["optimum", "uniform"])
@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.stem)
def test_verify_has_one_row_per_design_row(capsys, tmp_path, cfg, optimal):
    alloc = optimal_allocation(capsys, tmp_path, cfg)
    if not optimal:
        m = len(alloc.read_text().split())
        alloc.write_text("1\n" * m)
    report, lines = both_modes(capsys, "verify", "--config", str(cfg), str(alloc))
    assert report["optimal"] == optimal
    assert lines[0] == f"optimal = {report['optimal']} (tolerance {report['tolerance']:g})"
    assert lines[1].split() == ["idx", "case", "lhs", "rhs", "ok"]
    points = report["per_point"]
    assert len(lines) == 2 + len(points)
    for row, point in zip(lines[2:], points):
        index, case, lhs, rhs, ok = row.split()[:5]
        assert (int(index), case, ok) == (point["index"], point["case"], str(point["passed"]))
        assert float(lhs) == pytest.approx(point["lhs"], rel=1e-5, abs=1e-300)
        assert float(rhs) == pytest.approx(point["rhs"], rel=1e-5, abs=1e-300)
        assert row.rstrip().endswith(f"  [{point['note']}]" if point["note"] else ok)


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.stem)
def test_efficiency_line(capsys, tmp_path, cfg):
    ref = optimal_allocation(capsys, tmp_path, cfg)
    test = tmp_path / "uniform.txt"
    test.write_text("1\n" * len(ref.read_text().split()))
    report, lines = both_modes(capsys, "efficiency", "--config", str(cfg), str(test), str(ref))
    eff = report["efficiency"]
    assert 0.0 < eff < 1.0
    assert lines == [f"relative efficiency = {eff:.6f}  ({eff!r})"]
