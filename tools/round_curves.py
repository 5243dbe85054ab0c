"""Held-out log-loss curves that choose TrainConfig's default number of rounds.

    PYTHONPATH=src python3 tools/round_curves.py

Cross-validates 200 boosting rounds (5 folds, fold seed 0) on the default
300-vehicle fleets of synthesis seeds 1-9 and prints, per fleet, the round
where the pooled validation mlogloss is lowest and the loss at the default
round count. Then it prints the round where the mean of those nine curves is
lowest, and the mean curve there and at the default. Seed 0, the fleet
`evperf train --synth` fits, chooses nothing: its curve and its pooled
scores at the default and at 200 rounds are printed last, as a held-out
check. Rounds are numbered from 1. The output is deterministic; a run takes
about 40 s on a two-core x86_64 VM.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from evperf import SynthConfig, TrainConfig, cross_validate, round_curve, synth_dataset

ROUNDS = 200
CHOOSING = range(1, 10)
HELD_OUT = 0


def curve(seed: int, cfg: TrainConfig) -> np.ndarray:
    return round_curve(synth_dataset(SynthConfig(n_samples=300, seed=seed)), cfg, k=5, seed=0)


def main() -> None:
    default = TrainConfig().n_rounds
    cfg = TrainConfig(n_rounds=ROUNDS)
    print(f"pooled 5-fold validation mlogloss, {ROUNDS} rounds, default {default}")
    print("fleet  argmin  min      at default  at default / min")
    curves = []
    for seed in CHOOSING:
        c = curve(seed, cfg)
        curves.append(c)
        best = int(c.argmin())
        print(f"{seed:5d}  {best + 1:6d}  {c[best]:.5f}  {c[default - 1]:.5f}     "
              f"{c[default - 1] / c[best]:.4f}")
    mean = np.mean(curves, axis=0)
    best = int(mean.argmin())
    print(f"mean curve of fleets {CHOOSING.start}-{CHOOSING.stop - 1}: lowest at round "
          f"{best + 1} ({mean[best]:.5f}); round {default} {mean[default - 1]:.5f}, "
          f"round {ROUNDS} {mean[-1]:.5f}")

    held = curve(HELD_OUT, cfg)
    best = int(held.argmin())
    print(f"held-out fleet {HELD_OUT}: lowest at round {best + 1} ({held[best]:.5f}); "
          f"round {default} {held[default - 1]:.5f}, round {ROUNDS} {held[-1]:.5f}")
    data = synth_dataset(SynthConfig(n_samples=300, seed=HELD_OUT))
    for rounds in (default, ROUNDS):
        r = cross_validate(data, replace(cfg, n_rounds=rounds), k=5, seed=0)
        print(f"  {rounds:3d} rounds: accuracy {r.accuracy:.4f}  auc {r.roc_auc_macro_ovr:.4f}  "
              f"mcc {r.mcc:.4f}  mlogloss {r.mlogloss:.4f}")


if __name__ == "__main__":
    main()
