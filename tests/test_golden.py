"""Golden-output check: the four CLI commands, run on a small fixed-seed
experiment, must reproduce the files stored in tests/golden/.

validate.txt and every non-numeric header line must match byte for byte,
the bits and errors columns exactly, and every other number to 1e-12
relative, because FFT and BLAS results may differ in the last bits from
one CPU to another.

Regenerate a file only for an intended, stated output change, and only
the file that change is meant to alter: the other outputs may differ from
their golden copies at rounding level (today's bep.csv does, in the 15th
to 16th digit), and copying them too would change what the check pins
without saying so.  Write into a scratch directory, then copy back the
one file:

    out=$(mktemp -d)
    PYTHONPATH=src python -m mpir sim --config tests/golden/config.json --out "$out"
    cp "$out/ber.csv" tests/golden/ber.csv
"""

from pathlib import Path

import pytest

from mpir.cli import main

GOLDEN = Path(__file__).parent / "golden"
OUTPUTS = {"psd": "psd.csv", "bep": "bep.csv", "sim": "ber.csv", "validate": "validate.txt"}
EXACT_COLUMNS = {"bits", "errors"}
REL = 1e-12


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    for command in OUTPUTS:
        code = main([command, "--config", str(GOLDEN / "config.json"), "--out", str(out)])
        assert code == 0, f"mpir {command} exited {code}"
    return out


def _floats(text):
    return [float(v) for v in text.split(",")]


def _assert_header_line(got, want):
    if got == want:
        return
    key, _, value = want.partition(": ")
    try:
        want_numbers = _floats(value)
    except ValueError:
        pytest.fail(f"non-numeric header line changed:\n  got  {got}\n  want {want}")
    assert got.startswith(key + ": "), f"header key changed: {got!r} vs {want!r}"
    assert _floats(got[len(key) + 2 :]) == pytest.approx(want_numbers, rel=REL, abs=0), key


def test_validate_report_is_byte_identical(out_dir):
    assert (out_dir / "validate.txt").read_bytes() == (GOLDEN / "validate.txt").read_bytes()


@pytest.mark.parametrize("name", ["psd.csv", "bep.csv", "ber.csv"])
def test_csv_matches_golden(out_dir, name):
    got = (out_dir / name).read_text().splitlines()
    want = (GOLDEN / name).read_text().splitlines()
    assert len(got) == len(want), f"{name}: {len(got)} lines, golden has {len(want)}"
    n_header = sum(1 for line in want if line.startswith("#"))
    for g, w in zip(got[:n_header], want[:n_header]):
        _assert_header_line(g, w)
    assert got[n_header] == want[n_header], f"{name}: column line changed"
    columns = want[n_header].split(",")
    for row, (g, w) in enumerate(zip(got[n_header + 1 :], want[n_header + 1 :]), start=1):
        g_cells, w_cells = g.split(","), w.split(",")
        assert len(g_cells) == len(w_cells) == len(columns), f"{name} row {row}"
        for column, gv, wv in zip(columns, g_cells, w_cells):
            if column in EXACT_COLUMNS:
                assert gv == wv, f"{name} row {row} {column}: {gv} vs {wv}"
            else:
                assert float(gv) == pytest.approx(float(wv), rel=REL, abs=0), (
                    f"{name} row {row} {column}: {gv} vs {wv}"
                )


def test_psd_band_header_parses_as_two_floats(out_dir):
    header = (out_dir / "psd.csv").read_text().splitlines()
    (line,) = [h for h in header if h.startswith("# band_ghz: ")]
    lo, hi = _floats(line[len("# band_ghz: ") :])
    assert lo == -hi < 0
