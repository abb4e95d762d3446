"""The six `reproduce` tables against golden copies in tests/data.

The golden files are the tables `hybridcat reproduce` writes. A change that
moves cells on purpose regenerates them and says which cells moved (see
README, Validation).
"""

from pathlib import Path

import pytest

from hybridcat import cli

DATA = Path(__file__).parent / "data"
FIGURES = {2: ("figure2.tsv",), 3: ("figure3.tsv",)}
FIGURES.update({n: (f"figure{n}_a.tsv", f"figure{n}_b.tsv") for n in (4, 5)})
# one unit in the 12th significant digit the tables print
RELATIVE = ("fidelity", "probability_total", "negativity", "p_vac", "p_chi", "p_phi2")
RELATIVE_TOL = 2e-11
TAIL_TOL = 1e-13


def _read(path: Path):
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    return header.split("\t"), [row.split("\t") for row in rows]


def _mismatch(column: str, cell: str, golden: str) -> bool:
    """Whether a regenerated cell disagrees with its golden copy: axis,
    status and empty cells exactly, metric cells within their bounds."""
    if not golden or not cell or column not in RELATIVE + ("tail_mass",):
        return cell != golden
    gap = abs(float(cell) - float(golden))
    if column == "tail_mass":
        return gap > TAIL_TOL
    return gap > RELATIVE_TOL * abs(float(golden))


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_reproduce_matches_the_golden_tables(figure, tmp_path):
    argv = ["reproduce", "--figure", str(figure)]
    assert cli.main(argv + ["--output", str(tmp_path / f"figure{figure}.tsv")]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == list(FIGURES[figure])
    for name in FIGURES[figure]:
        header, rows = _read(tmp_path / name)
        golden_header, golden_rows = _read(DATA / name)
        assert header == golden_header and len(rows) == len(golden_rows), name
        for row, golden in zip(rows, golden_rows):
            bad = [
                (column, cell, expected)
                for column, cell, expected in zip(header, row, golden)
                if _mismatch(column, cell, expected)
            ]
            assert len(row) == len(golden) and not bad, (name, row[:2], bad)
