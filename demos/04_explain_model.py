"""Explain the classifier with exact Shapley attributions.

Trains a model on the saturation-focused synthetic fleet, then walks through
the full interpretability toolkit: global importance (both split-gain and
attribution based), the dependence curve that exposes diminishing returns
per cell, a single-prediction force decomposition, and pairwise interaction
values. Figures land in demo_output/.
"""

from pathlib import Path

import numpy as np

from evperf import (
    CLASS_NAMES,
    Dataset,
    PerfClass,
    TrainConfig,
    apply_scaler,
    fit_scaler,
    train,
)
from evperf.figures import bar_chart, force_chart, scatter
from evperf.gbdt import gain_importance, predict_proba
from evperf.physics import saturation_synth_config, synth_dataset
from evperf.treeshap import (
    dependence_data,
    explain_matrix,
    force_plot_data,
    global_importance,
    interaction_values,
)

out_dir = Path(__file__).resolve().parent.parent / "demo_output"
out_dir.mkdir(exist_ok=True)

dataset = synth_dataset(saturation_synth_config())
scaler = fit_scaler(dataset.features)
scaled = apply_scaler(dataset.features, scaler)
model = train(Dataset(scaled, dataset.labels, dataset.feature_names, scaler=scaler),
              TrainConfig())

print("computing exact attributions for all samples (margin space)...")
explained = explain_matrix(model, scaled, dataset.features)

print("\n== global importance: mean |phi| vs total split gain ==")
ranking = global_importance(explained)
gains = gain_importance(model)
print(f"{'feature':24s} {'mean |phi|':>12s} {'total gain':>12s}")
for fi in ranking:
    print(f"{fi.name:24s} {fi.overall:12.4f} {gains[fi.index]:12.1f}")

(out_dir / "shap_importance.svg").write_text(
    bar_chart([fi.name for fi in ranking], [fi.overall for fi in ranking],
              "Mean |phi| per feature (margin space)", xlabel="mean |phi|")
)

print("\n== dependence: attribution per cell count, High class ==")
cell_idx = dataset.feature_names.index("number_of_cells")
points = dependence_data(explained, cell_idx, int(PerfClass.HIGH))
values = np.array([v for v, _ in points])
phis = np.array([p for _, p in points])
for lo_q, hi_q in ((0, 30), (30, 70), (70, 100)):
    lo, hi = np.percentile(values, [lo_q, hi_q])
    band = (values >= lo) & (values <= hi)
    x = values[band] - values[band].mean()
    slope = float((x * phis[band]).sum() / (x * x).sum())
    print(f"cells {lo:6.0f}..{hi:6.0f}: mean phi {phis[band].mean():+.3f}   phi per 1000 cells {slope * 1000:+.3f}")
print("the marginal benefit per cell fades at the top of the range.")
(out_dir / "dependence.svg").write_text(
    scatter(values.tolist(), phis.tolist(),
            "Attribution vs cell count (High class, margin space)",
            xlabel="number_of_cells", ylabel="phi")
)

print("\n== force decomposition of one prediction ==")
sample = 0
probs = predict_proba(model, scaled[sample])
predicted = int(np.argmax(probs))
print(f"sample {sample}: predicted {CLASS_NAMES[predicted]} (p={probs[predicted]:.2f})")
force = force_plot_data(explained, sample, predicted)
print(f"base value {force.base_value:+.3f}")
for entry in force.entries:
    print(f"  {entry.name:24s}={entry.value:9.1f}  phi {entry.phi:+.3f}")
print(f"margin     {force.margin:+.3f}")
(out_dir / "force.svg").write_text(
    force_chart([(e.name, e.value, e.phi) for e in force.entries],
                force.base_value, force.margin,
                f"Sample {sample} decomposition, class {CLASS_NAMES[predicted]}")
)

print("\n== interaction values: how weight modulates the cell-count effect ==")
inter = interaction_values(model, scaled[sample][None])[0]
weight_idx = dataset.feature_names.index("weight_kg")
pair = inter[cell_idx, weight_idx, int(PerfClass.HIGH)]
main = inter[cell_idx, cell_idx, int(PerfClass.HIGH)]
print(f"cells main effect   : {main:+.4f}")
print(f"cells x weight pair : {pair:+.4f}")
print(f"\nwrote shap_importance.svg, dependence.svg, force.svg to {out_dir}")
