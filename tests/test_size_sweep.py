import importlib.util
import math
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "size_sweep.py"
_spec = importlib.util.spec_from_file_location("size_sweep", TOOL)
size_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(size_sweep)


def test_prints_one_row_per_size(capsys):
    size_sweep.main(sizes=(30, 60), repeats=1)
    lines = capsys.readouterr().out.splitlines()
    assert "median of 1" in lines[0] and lines[1].split()[0] == "rows"
    rows = [line.split() for line in lines[2:]]
    assert [int(r[0]) for r in rows] == [30, 60]
    for r in rows:
        values = [float(v) for v in r[1:]]
        assert len(values) == 4 and all(math.isfinite(v) and v > 0 for v in values)
