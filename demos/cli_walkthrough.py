"""
The command-line pipeline on disposable synthetic data
======================================================

Every library capability is also reachable through the factor-regimes
binary. This script fabricates a raw-format factor file pair, then
drives the full subcommand chain the way a shell user would:

    ingest -> fit -> granger -> validate -> backtest -> robustness -> plotdata

Everything lands in ./demo_out. Run with:

    python3 demos/cli_walkthrough.py
"""

import json
import pathlib

import numpy as np

from factorregimes import CrossLagSpec, HmmParams, SyntheticSpec, generate
from factorregimes.cli import main

out = pathlib.Path("demo_out")
out.mkdir(exist_ok=True)

# fabricate the two raw files (YYYYMMDD dates, preamble, footer)
scales = np.array([0.33, 0.56, 1.14])
params = HmmParams(
    pi=np.array([0.5, 0.35, 0.15]),
    A=np.array([[0.988, 0.011, 0.001],
                [0.007, 0.991, 0.002],
                [0.002, 0.030, 0.968]]),
    mu=np.zeros((3, 6)),
    Sigma=np.stack([np.eye(6) * s**2 for s in scales]),
    nu=np.array([12.0, 7.0, 4.0]),
)
spec = SyntheticSpec(hmm=params, T=4000, seed=8,
                     cross_lag=CrossLagSpec(2, 1, 2, 2, 0.6))
panel, _ = generate(spec)

raw5 = out / "raw_five_factors.csv"
raw_mom = out / "raw_momentum.csv"
with open(raw5, "w") as fh:
    fh.write("synthetic factor file for the CLI demo\n\n")
    fh.write(",Mkt-RF,SMB,HML,RMW,CMA,RF\n")
    for i, date in enumerate(panel.dates):
        ymd = str(date).replace("-", "")
        row = ",".join(f"{v:.4f}" for v in panel.returns[i, :5])
        fh.write(f"{ymd},{row},0.02\n")
with open(raw_mom, "w") as fh:
    fh.write(",Mom\n")
    for i, date in enumerate(panel.dates):
        ymd = str(date).replace("-", "")
        fh.write(f"{ymd},{panel.returns[i, 5]:.4f}\n")

def run(argv):
    print(f"\n$ factor-regimes {' '.join(argv)}")
    rc = main(argv)
    assert rc == 0, f"exit code {rc}"


run(["ingest", str(raw5), str(raw_mom), "--out", str(out / "panel.csv")])
run(["fit", "--panel", str(out / "panel.csv"), "--k-range", "2:4",
     "--seed", "11", "--restarts", "5", "--out", str(out / "model.json"),
     "--labels", str(out / "labels.csv")])
run(["granger", "--panel", str(out / "panel.csv"),
     "--labels", str(out / "labels.csv"), "--lmax", "8",
     "--out", str(out / "granger.csv")])

# event windows for validate: the three longest decoded crisis episodes
from factorregimes import read_labels_csv

dates, labels = read_labels_csv(out / "labels.csv")
runs, t = [], 0
while t < len(labels):
    if labels[t] == labels.max():
        s = t
        while t < len(labels) and labels[t] == labels.max():
            t += 1
        runs.append((t - s, s, t - 1))
    else:
        t += 1
episodes = sorted(runs, reverse=True)[:3]
(out / "events.csv").write_text("name,start,end\n" + "".join(
    f"episode {i + 1},{dates[a]},{dates[b]}\n"
    for i, (a, b) in enumerate(sorted(ep[1:] for ep in episodes))))

run(["validate", "--panel", str(out / "panel.csv"),
     "--labels", str(out / "labels.csv"), "--lag", "2",
     "--events", str(out / "events.csv"),
     "--out", str(out / "validation.csv")])
run(["backtest", "--panel", str(out / "panel.csv"),
     "--labels", str(out / "labels.csv"),
     "--start", "1990-01-01", "--end", "2024-12-31",
     "--out", str(out / "backtest.json")])
run(["robustness", "--panel", str(out / "panel.csv"),
     "--labels", str(out / "labels.csv"), "--lmax", "8",
     "--split", "1997-01-01", "--out", str(out / "robust")])
run(["plotdata", "--panel", str(out / "panel.csv"),
     "--labels", str(out / "labels.csv"), "--events", str(out / "events.csv"),
     "--out", str(out / "timeline.csv")])

model = json.loads((out / "model.json").read_text())
print(f"\nchosen K={model['K']}, BIC={model['bic']:.1f}")
print(f"artifacts in {out}/: " +
      ", ".join(sorted(p.name for p in out.iterdir())))
