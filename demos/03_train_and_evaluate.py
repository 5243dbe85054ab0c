"""Train the boosted-tree classifier on synthetic vehicles and evaluate it.

Generates a labeled fleet from the physics model, runs stratified 5-fold
cross-validation with leakage-free per-fold scaling, and prints the pooled
metrics plus the confusion matrix. Writes confusion.csv/svg under
demo_output/.
"""

import csv
from pathlib import Path

import numpy as np

from evperf import CLASS_NAMES, SynthConfig, TrainConfig, cross_validate, synth_dataset
from evperf.figures import heatmap

out_dir = Path(__file__).resolve().parent.parent / "demo_output"
out_dir.mkdir(exist_ok=True)

dataset = synth_dataset(SynthConfig(n_samples=300, seed=0))
counts = np.bincount(dataset.labels, minlength=3)
print("== synthetic fleet ==")
for name, count in zip(CLASS_NAMES, counts):
    print(f"{name:>5s}: {count:3d} vehicles")

config = TrainConfig()
print(f"\ncross-validating ({config.n_rounds} rounds, depth {config.max_depth}, 5 folds)...")
report = cross_validate(dataset, config, k=5, seed=0)

print("\n== pooled validation metrics ==")
print(f"accuracy : {report.accuracy:.3f}")
print(f"ROC-AUC  : {report.roc_auc_macro_ovr:.3f}  (macro one-vs-rest)")
print(f"MCC      : {report.mcc:.3f}")
print(f"mlogloss : {report.mlogloss:.3f}")

print("\nper-fold accuracy:", "  ".join(f"{fm.accuracy:.3f}" for fm in report.folds))

print("\n== confusion matrix (rows true, columns predicted) ==")
header = "        " + "".join(f"{n:>6s}" for n in CLASS_NAMES)
print(header)
for i, row in enumerate(report.confusion):
    print(f"{CLASS_NAMES[i]:>6s}  " + "".join(f"{v:6d}" for v in row))

with open(out_dir / "confusion.csv", "w", newline="") as fh:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["true\\pred", *CLASS_NAMES])
    writer.writerows([name, *row] for name, row in zip(CLASS_NAMES, report.confusion.tolist()))
(out_dir / "confusion.svg").write_text(
    heatmap(report.confusion.tolist(), CLASS_NAMES, CLASS_NAMES, "Pooled CV confusion matrix")
)
print(f"\nwrote {out_dir / 'confusion.csv'} and confusion.svg")
