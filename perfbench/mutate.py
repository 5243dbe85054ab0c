"""Show that every output check rejects a corrupted artifact.

    python3 perfbench/mutate.py

Makes small artifacts with the real CLI, confirms each check passes on them,
then feeds each check a copy with one defect (a shifted sweep time, a dropped
row, a perturbed phi, ...) and confirms that the check fails. Prints one line
per case and exits 1 if a check accepts a corrupted copy or rejects a clean
one. Nothing outside ``perfbench/.work`` is written; no source file changes.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402

WORK = HERE / ".work" / "mutate"


def edit_csv(path: Path, fn) -> None:
    header, rows = checks.read_csv(path)
    header, rows = fn(header, rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def set_cell(row: int, col: int, fn):
    def edit(header, rows):
        rows[row][col] = fn(rows[row][col])
        return header, rows
    return edit


def drop_row(row: int):
    def edit(header, rows):
        del rows[row]
        return header, rows
    return edit


def edit_json(path: Path, fn) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    fn(doc)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")


def scale(factor: float):
    return lambda text: repr(float(text) * factor)


def add(delta: float):
    return lambda text: repr(float(text) + delta)


def move_count(src: tuple[int, int], dst: tuple[int, int]):
    """Move one vehicle between two confusion.csv cells (1-based columns)."""
    def edit(header, rows):
        rows[src[0]][src[1]] = str(int(rows[src[0]][src[1]]) - 1)
        rows[dst[0]][dst[1]] = str(int(rows[dst[0]][dst[1]]) + 1)
        return header, rows
    return edit


def move_within_row(d: Path) -> None:
    """Move a High vehicle from the diagonal to Low in both confusion copies.

    Row sums stay the same, so only the recomputed accuracy and MCC can tell.
    """
    edit_csv(d / "confusion.csv", move_count((2, 3), (2, 1)))

    def edit(doc):
        doc["confusion"][2][2] -= 1
        doc["confusion"][2][0] += 1

    edit_json(d / "metrics.json", edit)


def deepen(doc: dict) -> None:
    """Split the deepest leaf of the deepest tree one level further."""
    def deepest(node: dict, depth: int) -> tuple[int, dict]:
        if "feature" not in node:
            return depth, node
        return max(deepest(node["left"], depth + 1), deepest(node["right"], depth + 1),
                   key=lambda found: found[0])

    _, node = max((deepest(t["root"], 0) for t in doc["trees"]), key=lambda found: found[0])
    leaf = dict(node)
    node.clear()
    node.update(cover=leaf["cover"], feature=0, threshold=0.0, gain=0.0, left=dict(leaf),
                right=dict(leaf))


def swap_phi(path: Path) -> None:
    """Swap phi of two features for row 0, class 0: their sum stays the same."""
    def edit(header, rows):
        a, b = rows[0], rows[3]  # features 0 and 1 of sample 0, class 0
        a[4], b[4] = b[4], a[4]
        return header, rows
    edit_csv(path, edit)


def main() -> int:
    from evperf.cli import main as cli

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    seed, n, m = 3, 300, 20
    synth, small, train, explain = (WORK / d for d in ("synth", "small", "train", "explain"))
    assert cli(["synth", "--n-samples", str(n), "--seed", str(seed), "--out-dir", str(synth)]) == 0
    assert cli(["synth", "--n-samples", str(m), "--seed", str(seed), "--out-dir", str(small)]) == 0
    fleet = synth / "synthetic.csv"
    assert cli(["train", "--input", str(fleet), "--rounds", "20", "--no-svg",
                "--out-dir", str(train)]) == 0
    shutil.copy(fleet, train / "input.csv")

    def train_check(d: Path) -> None:
        times = [float(r[-1]) for r in checks.read_csv(d / "input.csv")[1]]
        checks.check_floors([checks.check_train(d, times)])
    rows = WORK / "rows.csv"
    rows.write_text("".join(fleet.read_text().splitlines(keepends=True)[:11]))
    assert cli(["explain", "--input", str(rows), "--model", str(train / "model.json"),
                "--swarm-samples", "2", "--no-svg", "--out-dir", str(explain)]) == 0
    raw = np.asarray([[float(v) for v in r[:5]] for r in checks.read_csv(rows)[1]])

    def explain_check(d: Path) -> None:
        checks.check_explain(d, d / "model.json", raw, oracle_rows=2, swarm_rows=2)

    shutil.copy(train / "model.json", explain / "model.json")

    cases = [
        # (check name, directory, check, corruption name, corruption)
        ("sweep oracle", synth, lambda d: checks.check_sweep(d),
         "sweep time 12 scaled by 1+1e-5", lambda d: edit_csv(d / "sweep.csv", set_cell(12, 1, scale(1 + 1e-5)))),
        ("sweep curvature", synth, lambda d: checks.check_sweep(d, tol=1.0),
         "sweep time 14 raised 3% (inside the loosened oracle)",
         lambda d: edit_csv(d / "sweep.csv", set_cell(14, 1, scale(1.03)))),
        ("synthetic ranges", synth, lambda d: checks.check_synthetic_csv(d, n),
         "torque of row 7 set to 1200", lambda d: edit_csv(d / "synthetic.csv", set_cell(7, 3, lambda _: "1200.0"))),
        ("synthetic ranges", synth, lambda d: checks.check_synthetic_csv(d, n),
         "row 40 dropped", lambda d: edit_csv(d / "synthetic.csv", drop_row(40))),
        ("synthetic ranges", synth, lambda d: checks.check_synthetic_csv(d, n),
         "weight of row 9 set to nan", lambda d: edit_csv(d / "synthetic.csv", set_cell(9, 2, lambda _: "nan"))),
        ("synthetic ranges", synth, lambda d: checks.check_synthetic_csv(d, n),
         "cell count of row 3 set to 97 (prime)", lambda d: edit_csv(d / "synthetic.csv", set_cell(3, 1, lambda _: "97.0"))),
        ("fleet prefix", synth, lambda d: checks.check_prefix(d, small, m),
         "range of row 5 changed in the last digit",
         lambda d: edit_csv(d / "synthetic.csv", set_cell(5, 4, lambda t: repr(np.nextafter(float(t), 0))))),
        ("train confusion", train, train_check,
         "one vehicle moved between confusion rows", lambda d: edit_csv(d / "confusion.csv", move_count((0, 1), (1, 1)))),
        ("train confusion", train, train_check,
         "one vehicle moved within a confusion row",
         move_within_row),
        ("train confusion", train, train_check,
         "row 12 dropped from the input CSV", lambda d: edit_csv(d / "input.csv", drop_row(12))),
        ("train metrics", train, train_check,
         "mcc in metrics.json raised by 1e-9", lambda d: edit_json(d / "metrics.json", lambda doc: doc.update(mcc=doc["mcc"] + 1e-9))),
        ("train floors", train, train_check,
         "pooled AUC in metrics.json set to 0.94", lambda d: edit_json(d / "metrics.json", lambda doc: doc.update(roc_auc_macro_ovr=0.94))),
        ("model shape", train, lambda d: checks.check_model_shape(d, 20, 4),
         "last tree removed", lambda d: edit_json(d / "model.json", lambda doc: doc["trees"].pop())),
        ("model shape", train, lambda d: checks.check_model_shape(d, 20, 4),
         "the deepest leaf split one level deeper", lambda d: edit_json(d / "model.json", deepen)),
        ("explain local accuracy", explain, explain_check,
         "phi of row 7 feature 2 class 1 raised by 1e-6", lambda d: edit_csv(d / "shap_values.csv", set_cell(7 * 15 + 2 * 3 + 1, 4, add(1e-6)))),
        ("explain enumeration", explain, explain_check,
         "phi of features 0 and 1 swapped in row 0 (sum kept)", lambda d: swap_phi(d / "shap_values.csv")),
        ("explain interactions", explain, explain_check,
         "interaction of row 1 pair 3 raised by 1e-6", lambda d: edit_csv(d / "shap_swarm.csv", set_cell(10 + 3, 4, add(1e-6)))),
        ("explain row count", explain, explain_check,
         "last explained row dropped", lambda d: edit_csv(d / "shap_values.csv", lambda h, r: (h, r[:-15]))),
    ]

    bad = 0
    for check_name, source, check, what, corrupt in cases:
        copy = WORK / "copy"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(source, copy)
        try:
            check(copy)
        except checks.CheckError as exc:
            print(f"CLEAN REJECTED  {check_name}: {exc}")
            bad += 1
            continue
        corrupt(copy)
        try:
            check(copy)
        except checks.CheckError as exc:
            print(f"rejected  {check_name:24s} {what}: {exc}")
        else:
            print(f"ACCEPTED  {check_name:24s} {what}")
            bad += 1
    shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(cases) - bad} of {len(cases)} corrupted artifacts rejected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
