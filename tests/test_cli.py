import json
import subprocess
import sys
import time
from datetime import date
from pathlib import Path

import pytest

from stockpolytope import (
    ConsistencyError,
    build_report,
    check_report,
    load_sample_table,
    report_to_dict,
    report_to_json,
    report_to_text,
    sample_csv_text,
)
from stockpolytope.cli import main

SAMPLE = Path(__file__).resolve().parent.parent / "src" / "stockpolytope" / "data" / "djia4_sample.csv"
RANGE = ["--ref-date", "2013-05-15", "--end-date", "2013-06-03"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_json_content(capsys):
    code, out, err = run_cli(capsys, "analyze", str(SAMPLE), *RANGE, "--facets", "--check")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["schema_version"] == 1
    assert data["permutation"] == [2, 4, 1, 3]
    assert data["necklace"] == [[1, 3], [2, 3], [3, 4], [1, 4]]
    assert data["k"] == 2
    assert data["affine_lift"] == [2, 4, 5, 7]
    assert data["bases"] == [[1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]
    assert data["cell_dimension"] == 3
    assert data["polytope"] == {"affine_dimension": 3, "facet_count": 5, "vertex_count": 5}
    assert data["noncrossing_partition"] == [[1, 2, 3, 4]]


def test_analyze_identity_range(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", str(SAMPLE), "--ref-date", "2013-05-15", "--end-date", "2013-05-15"
    )
    assert code == 0
    data = json.loads(out)
    assert data["permutation"] == [1, 2, 3, 4]
    assert data["cell_dimension"] == 0
    assert data["crossings"] == []
    assert [d["color"] for d in data["decorations"]] == ["right"] * 4


def test_analyze_text_format(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(SAMPLE), *RANGE, "--format", "text")
    assert code == 0
    assert "permutation    : {2, 4, 1, 3}" in out
    assert "cell dimension : 3" in out


def test_analyze_decoration_range(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", str(SAMPLE), "--ref-date", "2013-05-15", "--end-date", "2013-06-05"
    )
    assert code == 0
    data = json.loads(out)
    assert data["permutation"] == [1, 3, 2, 4]
    assert data["decorations"] == [
        {"color": "right", "point": 1},
        {"color": "left", "point": 4},
    ]


def test_analyze_missing_file(capsys, tmp_path):
    code, out, err = run_cli(capsys, "analyze", str(tmp_path / "nope.csv"), *RANGE)
    assert code == 2
    assert "error:" in err


def test_analyze_unknown_date(capsys):
    code, _, err = run_cli(
        capsys, "analyze", str(SAMPLE), "--ref-date", "2013-05-15", "--end-date", "2013-07-01"
    )
    assert code == 2
    assert "unknown date" in err


def test_analyze_bad_csv(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("date,X\n2020-01-01,0.00\n")
    code, _, err = run_cli(
        capsys, "analyze", str(bad), "--ref-date", "2020-01-01", "--end-date", "2020-01-01"
    )
    assert code == 2
    assert "non-positive" in err


def test_facets_gate_for_large_tables(capsys, tmp_path):
    tickers = [f"T{i}" for i in range(9)]
    rows = ["date," + ",".join(tickers)]
    rows.append("2020-01-01," + ",".join(f"{10 + i}.00" for i in range(9)))
    big = tmp_path / "big.csv"
    big.write_text("\n".join(rows) + "\n")
    code, _, err = run_cli(
        capsys, "analyze", str(big), "--ref-date", "2020-01-01",
        "--end-date", "2020-01-01", "--facets",
    )
    assert code == 2
    assert "n <= 8" in err


def test_analyze_stops_cleanly_on_30_stock_top_cell(tmp_path):
    # Rank q at the end holds the stock of reference rank q + 15 (mod 30):
    # the top cell of Gr(15, 30), whose C(30, 15) bases are far too many.
    n, k = 30, 15
    tickers = [f"T{s:02d}" for s in range(n)]
    end_rank = [(r - 1 - k) % n + 1 for r in range(1, n + 1)]
    rows = ["date," + ",".join(tickers),
            "2020-01-01," + ",".join(f"{10 + s}.00" for s in range(n)),
            "2020-01-02," + ",".join(f"{9 + q}.00" for q in end_rank)]
    path = tmp_path / "top30.csv"
    path.write_text("\n".join(rows) + "\n")
    started = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "stockpolytope", "analyze", str(path),
         "--ref-date", "2020-01-01", "--end-date", "2020-01-02"],
        capture_output=True,
        text=True,
    )
    assert time.perf_counter() - started < 10.0
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: basis search")
    assert "(n = 30, k = 15)" in result.stderr


def test_chain_text(capsys):
    code, out, _ = run_cli(capsys, "chain", str(SAMPLE), *RANGE)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert [line.rsplit(" ", 1)[-1] for line in lines] == ["0", "1", "2", "3"]
    assert "2013-05-21" in lines[1]
    assert "s1" in lines[1]


def test_chain_json(capsys):
    code, out, _ = run_cli(capsys, "chain", str(SAMPLE), *RANGE, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [s["dimension"] for s in data["steps"]] == [0, 1, 2, 3]
    assert data["steps"][0]["position"] is None
    assert data["steps"][1]["position"] == 1


def test_chain_no_crossings(capsys):
    code, out, _ = run_cli(
        capsys, "chain", str(SAMPLE), "--ref-date", "2013-05-15", "--end-date", "2013-05-16"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    assert lines[0].endswith("dim 0")


def test_render_modes(capsys):
    for mode in ("wiring", "chords", "hooks"):
        code, out, _ = run_cli(capsys, "render", mode, str(SAMPLE), *RANGE)
        assert code == 0
        assert out.startswith("<?xml")
        code, out, _ = run_cli(capsys, "render", mode, str(SAMPLE), *RANGE, "--format", "ascii")
        assert code == 0
        assert "<?xml" not in out


def test_render_hooks_footer(capsys):
    code, out, _ = run_cli(capsys, "render", "hooks", str(SAMPLE), *RANGE, "--format", "ascii")
    assert code == 0
    assert "7 - 4 = 3" in out


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "analyze", str(SAMPLE), *RANGE, "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["permutation"] == [2, 4, 1, 3]


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "stockpolytope", "analyze", str(SAMPLE), *RANGE],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["permutation"] == [2, 4, 1, 3]


def test_report_roundtrip_and_check():
    table = load_sample_table()
    report = build_report(table, date(2013, 5, 15), date(2013, 6, 3), with_facets=True)
    check_report(report)
    as_dict = report_to_dict(report)
    assert json.loads(report_to_json(report)) == as_dict
    text = report_to_text(report)
    assert "5 vertices" in text and "5 facets" in text


def test_check_catches_corrupted_cell_dimension():
    report = build_report(load_sample_table(), date(2013, 5, 15), date(2013, 6, 3))
    report.cell_dim += 1
    with pytest.raises(ConsistencyError, match=r"k\(n-k\) - l\(f\)"):
        check_report(report)


def test_sample_csv_text_matches_packaged_file():
    assert sample_csv_text() == SAMPLE.read_text()
