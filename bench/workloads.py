"""Workloads, the stage runner, the output checks and the traced run.

`run.py` imports this module after pinning the thread variables; see
bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace

import numpy as np
import scipy

import factorregimes as fr
import spans
from benchenv import BENCH_DIR, PINNED_THREADS, ROOT, SRC, WORK_ROOT, with_threads

FACTORS = ("MKT-RF", "SMB", "HML", "RMW", "CMA", "MOM")
CRISIS = 2  # index of the high-volatility regime in the generator
FIT_SEED = 7  # the fit's own --seed, fixed the way a user fixes it
# HML leads SMB by two days inside the crisis regime only
PLANTED = fr.CrossLagSpec(source=2, target=1, regime=CRISIS, lag=2, coefficient=0.4)
DEADLINE_S = 165.0  # a run ends well inside the 180 s it is allowed
MIN_ACCURACY = 0.90
LOGLIK_RTOL = 1e-8
LAYERS = ("cli", "panel", "hmm", "granger", "robustness", "events", "backtest")
RAW_FF5 = "ff5_daily.CSV"
RAW_MOM = "momentum_daily.CSV"

# files each stage writes, relative to its output directory
ARTIFACTS = {
    "ingest": ("panel.csv",),
    "fit": ("model.json", "labels.csv"),
    "granger": ("granger.csv",),
    "validate": ("validation.csv",),
    "backtest": ("backtest.json", "returns.csv"),
    "robustness": tuple(os.path.join("robustness", f) for f in (
        "threshold_regimes.csv", "lag_sweep.csv", "subsample_split.csv",
        "transition_windows.csv")),
    "plotdata": ("timeline.csv",),
}


def paper_params() -> fr.HmmParams:
    """Three Student-t regimes shaped like the paper's calm, normal and
    crisis states: volatility ratio about 1 : 1.7 : 3.5, degrees of freedom
    12, 7 and 4, and persistent chains whose stationary crisis share is
    about 15 %, the same as the initial distribution."""
    d = len(FACTORS)
    scales = np.array([0.326, 0.559, 1.137])
    mu = np.zeros((3, d))
    mu[0, 0] = 0.03
    mu[2, 0] = -0.08
    return fr.HmmParams(
        pi=np.array([0.5, 0.35, 0.15]),
        A=np.array([[0.988, 0.010, 0.002],
                    [0.006, 0.986, 0.008],
                    [0.004, 0.030, 0.966]]),
        mu=mu,
        Sigma=np.stack([np.eye(d) * s**2 for s in scales]),
        nu=np.array([12.0, 7.0, 4.0]),
        family="student_t",
    )


@dataclass(frozen=True)
class Workload:
    name: str
    T: int                 # trading days per panel
    panels: int            # independent panels; chains cycle over them
    start: str             # first date of every panel
    raw: bool              # inputs are raw distribution files, read by `ingest`
    fit: dict | None       # fit options; None writes the true labels in set-up
    downstream: bool       # granger, validate, backtest, robustness, plotdata
    restarts: int = 2
    lmax: int = 15
    split: str = "2008-01-01"
    probe_ks: tuple = ()


WORKLOADS = {
    "fit_paper": Workload(
        "fit_paper", T=8817, panels=4, start="1990-01-02", raw=False,
        fit={"k": 3}, downstream=False, probe_ks=(3,)),
    "causality_paper": Workload(
        "causality_paper", T=8817, panels=1, start="1990-01-02", raw=False,
        fit=None, downstream=True),
    "pipeline_kselect": Workload(
        "pipeline_kselect", T=2520, panels=3, start="2006-01-02", raw=True,
        fit={"k_range": "2:3"}, downstream=True, restarts=1,
        split="2011-01-03", probe_ks=(2, 3, 4)),
}


def smoke_workload(w: Workload) -> Workload:
    return replace(w, T=1200, panels=1, restarts=1, lmax=5,
                   start="2007-01-01", split="2009-01-01")


# ---------------------------------------------------------------------------
# set-up: inputs from the seed


@dataclass
class Inputs:
    dir: str
    panel: fr.FactorPanel  # what the stages should see, after any ingest
    truth: np.ndarray      # generator labels


def sub_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def write_raw_files(panel: fr.FactorPanel, d: str) -> fr.FactorPanel:
    """Raw five-factor and momentum files in the distribution layout:
    preamble, YYYYMMDD rows with two extra columns, an annual footer
    table. Returns the panel as ingest should read it back."""
    text = np.char.mod("%.4f", panel.returns)
    ymd = [str(x).replace("-", "") for x in panel.dates]
    years = panel.dates.astype("datetime64[Y]").astype(int) + 1970
    with open(os.path.join(d, RAW_FF5), "w", encoding="utf-8") as fh:
        fh.write("This file was created from a synthetic regime panel.\n"
                 "The 1-month T-bill return is a constant.\n\n")
        fh.write(",Mkt-RF,SMB,HML,RMW,CMA,RF\n")
        for day, row in zip(ymd, text):
            fh.write(f"{day},{','.join(row[:5])},0.0150\n")
        fh.write("\n Annual Factors: January-December\n,Mkt-RF,SMB,HML,RMW,CMA,RF\n")
        for y in np.unique(years):
            tot = panel.returns[years == y].sum(axis=0)
            fh.write(f"{y}," + ",".join(f"{v:.2f}" for v in tot[:5]) + ",3.80\n")
    with open(os.path.join(d, RAW_MOM), "w", encoding="utf-8") as fh:
        fh.write("Momentum factor, synthetic\n\n,Mom   \n")
        for day, row in zip(ymd, text):
            fh.write(f"{day},{row[5]}\n")
    return fr.FactorPanel(panel.dates, text.astype(float), panel.factor_names)


def make_inputs(w: Workload, seed: int, i: int, d: str, tr: spans.Tracer) -> Inputs:
    os.makedirs(d)
    gen, truth = fr.generate(fr.SyntheticSpec(
        hmm=paper_params(), T=w.T, seed=sub_seed(seed, i), cross_lag=PLANTED))
    dates = np.busday_offset(w.start, np.arange(w.T), roll="forward")
    panel = fr.FactorPanel(dates.astype("datetime64[D]"), gen.returns, FACTORS)
    if w.raw:
        panel = write_raw_files(panel, d)
    else:
        tr.call("panel.write_panel_csv", fr.write_panel_csv, panel,
                os.path.join(d, "panel.csv"))
        # the stages see the six decimals the canonical CSV keeps
        panel = fr.FactorPanel(panel.dates, np.char.mod("%.6f", panel.returns)
                               .astype(float), FACTORS)
    if w.fit is None:
        fr.write_labels_csv(panel.dates, truth, os.path.join(d, "labels.csv"))
    return Inputs(d, panel, truth)


def setup(w: Workload, seed: int, d: str, n: int, tr: spans.Tracer) -> list[Inputs]:
    return [make_inputs(w, seed, i, os.path.join(d, f"panel{i}"), tr)
            for i in range(n)]


# ---------------------------------------------------------------------------
# stages


def stage(name: str, positional: dict | None = None, **options) -> dict:
    """One subcommand's command line. Every option is passed explicitly,
    so a chain never depends on the subcommand's defaults."""
    argv = [name, *map(str, (positional or {}).values())]
    for key, value in options.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    return {"name": name, "argv": argv}


def panel_path(w: Workload, inp: Inputs, out: str) -> str:
    """The canonical panel the stages read: ingest's output or set-up's."""
    return os.path.join(out if w.raw else inp.dir, "panel.csv")


def labels_path(w: Workload, inp: Inputs, out: str) -> str:
    """The labels the downstream stages read: fit's output or the truth."""
    return os.path.join(inp.dir if w.fit is None else out, "labels.csv")


def granger_stage(w: Workload, panel: str, labels: str, out: str) -> dict:
    return stage("granger", panel=panel, labels=labels, lmax=w.lmax, alpha=0.01,
                 out=os.path.join(out, "granger.csv"))


def chain(w: Workload, inp: Inputs, out: str) -> list[dict]:
    """The stages of one panel, in order; outputs go to `out`."""
    src = inp.dir
    panel, labels = panel_path(w, inp, out), labels_path(w, inp, out)
    stages = []
    if w.raw:
        stages.append(stage("ingest", {"ff5": os.path.join(src, RAW_FF5),
                                       "momentum": os.path.join(src, RAW_MOM)},
                            out=panel))
    if w.fit is not None:
        stages.append(stage("fit", panel=panel, **w.fit, seed=FIT_SEED,
                            restarts=w.restarts,
                            out=os.path.join(out, "model.json"), labels=labels))
    if w.downstream:
        both = {"panel": panel, "labels": labels}
        stages += [
            granger_stage(w, panel, labels, out),
            stage("validate", **both, window=90, lag=9,
                  out=os.path.join(out, "validation.csv")),
            stage("backtest", **both, window=9, start="1995-01-01",
                  end="2024-12-31", out=os.path.join(out, "backtest.json"),
                  returns_csv=os.path.join(out, "returns.csv")),
            stage("robustness", **both, lmax=w.lmax, alpha=0.01, split=w.split,
                  out=os.path.join(out, "robustness")),
            stage("plotdata", **both, out=os.path.join(out, "timeline.csv")),
        ]
    return stages


def run_process(argv, env, log_path, timeout):
    """Run argv to completion; returns its exit code and its wall seconds,
    CPU seconds (user plus system) and peak RSS in MB."""
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                             "rss_mb": usage.ru_maxrss * 1024 / 1e6}


def stage_env(threads: int = PINNED_THREADS) -> dict:
    env = with_threads(os.environ, threads)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


class Clock:
    def __init__(self):
        self.t0 = time.perf_counter()

    def left(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.t0)


def traced_argv(spans_out: str, st: dict) -> list[str]:
    """A stage's command line through replay.py, which records its spans."""
    return [sys.executable, os.path.join(BENCH_DIR, "replay.py"), spans_out,
            *st["argv"]]


def run_chain(w, inp, out, clock, log, tr=None):
    """Run one panel's stages in order, one process at a time.

    Untraced (tr is None) each stage is `python -m factorregimes.cli`;
    traced it is the same subcommand through `replay.py`, inside a span
    whose children are the spans the stage process recorded. Returns the
    stage records and the wall time from the first stage's start to the
    last one's exit."""
    os.makedirs(out, exist_ok=True)
    records = []
    env = stage_env()
    t_first = time.perf_counter()
    for k, st in enumerate(chain(w, inp, out)):
        if tr is None:
            argv = [sys.executable, "-m", "factorregimes.cli", *st["argv"]]
            rc, used = run_process(argv, env, log, clock.left())
        else:
            spans_out = os.path.join(out, f"spans-{k}.json")
            with tr.span("cli." + st["name"]) as sp:
                rc, used = run_process(traced_argv(spans_out, st), env, log,
                                       clock.left())
            if rc == 0:
                tr.adopt(spans.load(spans_out), sp["id"])
        records.append({"stage": st["name"], "rc": rc, **used})
    return records, time.perf_counter() - t_first


# ---------------------------------------------------------------------------
# output checks


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def digests(w, inp, out) -> dict:
    """{stage: {artifact: sha256 or None}} for one chain's output directory."""
    return {st["name"]: {rel: sha256(os.path.join(out, rel))
                         if os.path.isfile(os.path.join(out, rel)) else None
                         for rel in ARTIFACTS[st["name"]]}
            for st in chain(w, inp, out)}


def _lines(path) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def check_stage(w, name, inp, out, figures) -> list[str]:
    """Parse the artifacts of one stage and test them; returns failures."""
    panel = inp.panel
    fails = []
    p = lambda rel: os.path.join(out, rel)
    if name == "ingest":
        got = fr.read_panel_csv(p("panel.csv"))
        if got.factor_names != FACTORS or not np.array_equal(got.dates, panel.dates) \
                or not np.array_equal(got.returns, panel.returns):
            fails.append("ingested panel differs from the raw files' values")
    elif name == "fit":
        params, meta = fr.load_model(p("model.json"))
        dates, labels = fr.read_labels_csv(p("labels.csv"))
        if not np.array_equal(dates, panel.dates):
            fails.append("labels.csv dates differ from the panel dates")
        K = params.n_regimes
        if "k" in w.fit and K != w.fit["k"]:
            fails.append(f"model has K={K}, asked for {w.fit['k']}")
        acc = fr.label_accuracy(labels, inp.truth, max(K, 3))
        figures.setdefault("label_accuracy", []).append(acc)
        if "k" in w.fit and acc < MIN_ACCURACY:
            fails.append(f"label accuracy {acc:.4f} < {MIN_ACCURACY}")
        loglik, _, _ = fr.forward_backward(params, panel)
        rel = abs(loglik - meta["loglik"]) / abs(loglik)
        figures.setdefault("loglik_rel_err", []).append(rel)
        if not rel <= LOGLIK_RTOL:
            fails.append(f"model.json loglik is {rel:.2e} off forward_backward")
        figures.setdefault("selected_k", []).append(K)
    elif name == "granger":
        rows = [r.split(",") for r in _lines(p("granger.csv"))[1:]]
        if not rows or any(len(r) != 9 for r in rows):
            fails.append("granger.csv has no rows or a malformed row")
        figures.setdefault("cells_tested", []).append(len(rows))
        if w.fit is None:  # true labels: the planted cell must show
            hit = [r for r in rows if r[:3] == ["HML", "SMB", str(CRISIS)]]
            figures.setdefault("planted_p", []).extend(float(r[5]) for r in hit)
            if len(hit) != 1 or hit[0][8] != "True":
                fails.append("planted HML->SMB crisis lead-lag is not "
                             "Bonferroni-significant")
    elif name == "validate":
        lines = _lines(p("validation.csv"))
        if len(lines) != len(fr.DEFAULT_EVENT_WINDOWS) + 2 \
                or not lines[-1].startswith("# binomial"):
            fails.append("validation.csv lacks its event rows or footer")
    elif name == "backtest":
        with open(p("backtest.json"), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        legs = [doc.get(k, {}) for k in ("strategy", "benchmark")]
        if not all(np.isfinite(leg.get("annual_return", np.nan)) for leg in legs):
            fails.append("backtest.json lacks a finite annual return")
        if fr.read_panel_csv(p("returns.csv")).n_days != legs[1].get("n_days"):
            fails.append("returns.csv length differs from backtest.json")
    elif name == "robustness":
        if len(_lines(p(os.path.join("robustness", "lag_sweep.csv")))) != 5:
            fails.append("lag_sweep.csv does not have four bounds")
        for rel in ARTIFACTS["robustness"]:
            if len(_lines(p(rel))) < 2:
                fails.append(f"{rel} is empty")
    elif name == "plotdata":
        if len(_lines(p("timeline.csv"))) != panel.n_days + 1:
            fails.append("timeline.csv does not have one row per day")
    return fails


def check_chain(w, inp, out, figures) -> dict:
    """{stage: [failures]} for one chain's output directory."""
    result = {}
    for st in chain(w, inp, out):
        try:
            result[st["name"]] = check_stage(w, st["name"], inp, out, figures)
        except (OSError, ValueError, KeyError) as exc:  # unparsable artifact
            result[st["name"]] = [f"{type(exc).__name__}: {exc}"]
    return result


class DigestStore:
    """Artifact digests of earlier runs in this checkout with the same
    workload, size and seed, and the same package sources, benchmark
    sources, python, numpy and scipy; one file per panel."""

    def __init__(self, w, args, machine: dict):
        size = "smoke" if args.smoke else "full"
        key = hashlib.sha256("\0".join((
            machine["source_sha256"], tree_digest(BENCH_DIR), machine["python"],
            machine["numpy"], machine["scipy"])).encode()).hexdigest()
        self.prefix = os.path.join(WORK_ROOT, "digests",
                                   f"{w.name}-{size}-s{args.seed}-{key[:16]}")

    def check(self, panel: int, current: dict) -> dict:
        """{stage: [failure]} where an earlier run wrote other bytes;
        records `current` when no earlier run exists."""
        path = f"{self.prefix}-panel{panel}.json"
        if not os.path.isfile(path):
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(current, fh, indent=1, sort_keys=True)
            return {}
        with open(path, "r", encoding="utf-8") as fh:
            previous = json.load(fh)
        return differing(previous, current,
                         "artifacts differ from an earlier run of the same code and seed")


def differing(reference: dict, current: dict, why: str) -> dict:
    """{stage: [why]} for each stage whose artifact digests, missing files
    included, are not the reference's."""
    return {k: [why] for k in current if current[k] != reference.get(k)}


def merge_checks(*dicts) -> dict:
    out = {}
    for d in dicts:
        for k, v in d.items():
            if v:
                out[k] = out.get(k, []) + v
    return out


# ---------------------------------------------------------------------------
# machine facts


def tree_digest(directory: str) -> str:
    """SHA-256 over the names and bytes of the .py files in `directory`."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(directory, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() or None


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown"}
    return {k: blas.get(k) for k in ("name", "version")}


def machine_facts(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas": blas_info(),
        "blas_threads_pinned": PINNED_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": tree_digest(os.path.join(SRC, "factorregimes")),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# runs


def median(xs):
    return statistics.median(xs) if xs else None


def stage_wall(records, name) -> float:
    return sum(r["wall_s"] for r in records if r["stage"] == name)


def count_failures(records, checks: dict) -> int:
    return sum(1 for r in records if r["rc"] != 0 or checks.get(r["stage"]))


def run(args):
    w = WORKLOADS[args.workload]
    if args.smoke:
        w = smoke_workload(w)
    clock = Clock()
    run_dir = os.path.join(WORK_ROOT, f"{w.name}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    detail = {"workload": w.name, "smoke": args.smoke, "trace": args.trace,
              "config": {**w.__dict__, "fit_seed": FIT_SEED,
                         "planted": PLANTED.__dict__},
              "machine": machine_facts(args.seed)}
    store = DigestStore(w, args, detail["machine"])
    try:
        if args.trace:
            result = traced_run(w, args, run_dir, clock, store, detail)
        else:
            result = timed_run(w, args, run_dir, clock, store, detail)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return result, detail


def per_panel_median(chains, value) -> float:
    """Median across panels of each panel's median of value(chain), so
    every panel weighs the same however many cycles a run fits."""
    by_panel = {}
    for c in chains:
        by_panel.setdefault(c["panel"], []).append(value(c))
    return median([median(v) for v in by_panel.values()])


def timed_run(w, args, run_dir, clock, store, detail):
    """Whole cycles, each one chain per panel, while one more cycle still
    fits in the window. The set-up runs once before the first chain and
    once more after every chain: the host's speed changes within seconds,
    and spreading the repeats over the run lets their median see it."""
    setup_times = []

    def timed_setup():
        d = os.path.join(run_dir, f"setup{len(setup_times)}")
        t0 = time.perf_counter()
        made = setup(w, args.seed, d, w.panels, spans.Tracer())
        setup_times.append(time.perf_counter() - t0)
        return made

    inputs = timed_setup()
    log = os.path.join(run_dir, "stages.log")
    chains, figures, first_digests = [], {}, {}
    window_t0 = time.perf_counter()
    while True:
        cycle_t0 = time.perf_counter()
        for i, inp in enumerate(inputs):
            out = os.path.join(run_dir, f"chain{len(chains)}")
            records, wall = run_chain(w, inp, out, clock, log)
            cur = digests(w, inp, out)
            if i not in first_digests:
                first_digests[i] = cur
                checks = merge_checks(check_chain(w, inp, out, figures),
                                      store.check(i, cur))
            else:
                checks = differing(first_digests[i], cur,
                                   "artifacts differ from this panel's first chain")
            shutil.rmtree(out, ignore_errors=True)
            chains.append({"panel": i, "wall_s": wall, "stages": records,
                           "checks": checks, "failed": count_failures(records, checks)})
            repeat = timed_setup()
            shutil.rmtree(os.path.dirname(repeat[0].dir))
        cycle = time.perf_counter() - cycle_t0
        spent = time.perf_counter() - window_t0
        if spent + cycle > args.seconds or clock.left() < cycle + 5:
            break

    attempted = sum(len(c["stages"]) for c in chains)
    failed = sum(c["failed"] for c in chains)
    metrics = {
        "wall_s": (per_panel_median(chains, lambda c: c["wall_s"]), "s"),
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (per_panel_median(
            chains, lambda c: max(r["rss_mb"] for r in c["stages"])), "MB"),
    }
    extra = {"failed_ops_frac": (failed / attempted, "ratio")}
    for name in ("fit", "granger", "robustness"):
        if any(r["stage"] == name for r in chains[0]["stages"]):
            extra[f"{name}_s"] = (per_panel_median(
                chains, lambda c: stage_wall(c["stages"], name)), "s")
    if "label_accuracy" in figures:
        extra["label_accuracy"] = (min(figures["label_accuracy"]), "ratio")
    print(f"factorregimes benchmark: workload {w.name}, seed {args.seed}, "
          f"{len(chains) // len(inputs)} cycle(s) over {len(inputs)} panel(s) "
          f"of T={w.T}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<34} {value:14.6f} {unit}")
    detail.update(chains=chains, setup_s=setup_times, figures=figures,
                  digests={f"panel{i}": d for i, d in first_digests.items()},
                  extra_metrics={k: v[0] for k, v in extra.items()})
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


# ---------------------------------------------------------------------------
# traced run


def _timed(tr, name, fn, *args, repeats=1, **kwargs):
    """Median duration of `repeats` spanned calls, and the last result."""
    times = []
    for _ in range(repeats):
        with tr.span(name) as sp:
            result = fn(*args, **kwargs)
        times.append(spans.duration_s(sp))
    return median(times), result


def import_time(env) -> float:
    code = ("import time; t = time.perf_counter(); import factorregimes.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(3):
        res = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True)
        times.append(float(res.stdout))
    return median(times)


def probe_hmm(tr, w, panel, m):
    for K in w.probe_ks:
        cfg = fr.FitConfig(seed=FIT_SEED, n_restarts=1)
        dt, fit = _timed(tr, "hmm.em_fit", fr.em_fit, panel, K, "student_t", cfg)
        iters = len(fit.loglik_history) - 1
        m[f"hmm.em_iters.k{K}"] = iters
        m[f"hmm.em_iter_s.k{K}"] = dt / max(iters, 1)
        m[f"hmm.forward_backward_s.k{K}"], _ = _timed(
            tr, "hmm.forward_backward", fr.forward_backward, fit.params, panel,
            repeats=3)
        if K == 3:
            m["hmm.decode_s"], _ = _timed(tr, "hmm.decode", fr.decode,
                                          fit.params, panel, repeats=3)


def probe_granger(tr, w, panel, labels, m, notes):
    """One crisis-regime cell, and the design rows the matrix's lag
    searches build, computed from one select_lag_bic table per regime."""
    y, x = panel.column("SMB"), panel.column("HML")
    crisis = int(labels.max())
    crisis_mask = lambda L: fr.regime_lag_mask(labels, crisis, L)
    m["granger.select_lag_bic_s"], (L_star, _) = _timed(
        tr, "granger.select_lag_bic", fr.select_lag_bic, y, x, crisis_mask,
        w.lmax, repeats=3)
    m["granger.granger_f_test_s"], _ = _timed(
        tr, "granger.granger_f_test", fr.granger_f_test, y, x, L_star,
        crisis_mask(L_star), repeats=5)
    d = panel.n_factors
    rows = 0
    for k in np.unique(labels):
        _, table = fr.select_lag_bic(
            y, x, lambda L, k=k: fr.regime_lag_mask(labels, k, L), w.lmax)
        rows += sum(r["n_obs"] for r in table if r["n_obs"] is not None)
    m["granger.design_rows"] = d * (d - 1) * rows
    notes["granger.design_rows"] = (
        "computed: per-regime lag-search rows from select_lag_bic tables, "
        "times the d(d-1) ordered pairs")


def probe_f_sf(tr) -> float:
    dist = fr.FTestDistribution(5, 1200)
    n = 2000
    times = []
    for _ in range(5):
        with tr.span("numerics.f_sf", calls=n) as sp:
            for _ in range(n):
                fr.f_sf(2.5, dist)
        times.append(spans.duration_s(sp) / n * 1e6)
    return median(times)


def pairwise_at_nproc(w, inp, src_out, out, clock, log):
    """The granger stage on the inputs of the chain in `src_out`, run
    through replay.py with BLAS threads at nproc and its outputs in `out`;
    returns (exit code, seconds in the matrix call)."""
    os.makedirs(out, exist_ok=True)
    spans_out = os.path.join(out, "spans.json")
    st = granger_stage(w, panel_path(w, inp, src_out), labels_path(w, inp, src_out), out)
    rc, _ = run_process(traced_argv(spans_out, st),
                           stage_env(len(os.sched_getaffinity(0))), log, clock.left())
    if rc != 0:
        return rc, 0.0
    return rc, spans.total_by_name(spans.load(spans_out))["granger.pairwise_regime_matrix"]


PER_LAYER = (
    "cli.import_s", "cli.ingest_s", "cli.fit_s", "cli.granger_s", "cli.validate_s",
    "cli.backtest_s", "cli.robustness_s", "cli.plotdata_s",
    *(f"{layer}.self_s" for layer in LAYERS),
    "panel.parse_ff_daily_csv_s", "panel.read_panel_csv_s",
    "panel.read_labels_csv_s", "panel.write_panel_csv_s",
    *(f"hmm.{m}.k{K}" for m in ("forward_backward_s", "em_iters", "em_iter_s")
      for K in (2, 3, 4)),
    "hmm.em_fit_s", "hmm.select_k_s", "hmm.order_regimes_s", "hmm.decode_s",
    "granger.pairwise_regime_matrix_s", "granger.select_lag_bic_s",
    "granger.granger_f_test_s", "granger.cells_tested", "granger.cells_failed",
    "granger.design_rows", "granger.pairwise_blas_nproc_s",
    "robustness.threshold_regimes_s", "robustness.lag_sweep_s",
    "robustness.subsample_split_s", "robustness.transition_window_analysis_s",
    "events.event_granger_validation_s", "backtest.run_backtest_s",
    "numerics.f_sf_us", "trace.overhead_s",
)
# span totals of the traced chain that are reported as <name>_s
CHAIN_CALLS = (
    "panel.parse_ff_daily_csv", "panel.read_panel_csv", "panel.read_labels_csv",
    "hmm.em_fit", "hmm.select_k", "hmm.order_regimes",
    "granger.pairwise_regime_matrix", "robustness.threshold_regimes",
    "robustness.lag_sweep", "robustness.subsample_split",
    "robustness.transition_window_analysis", "events.event_granger_validation",
    "backtest.run_backtest",
)
UNITS = {"em_iters": "count", "cells_tested": "count", "cells_failed": "count",
         "design_rows": "rows", "f_sf_us": "us"}


def unit_of(name: str) -> str:
    return next((u for key, u in UNITS.items() if key in name), "s")


def traced_run(w, args, run_dir, clock, store, detail):
    """One untraced chain, the same chain traced, then single-call probes,
    all on the first panel."""
    tr = spans.Tracer()
    with tr.span("setup") as setup_span:
        inp = setup(w, args.seed, os.path.join(run_dir, "setup"), 1, tr)[0]
    log = os.path.join(run_dir, "stages.log")
    untraced_dir = os.path.join(run_dir, "untraced")
    records, untraced_wall = run_chain(w, inp, untraced_dir, clock, log)
    figures = {}
    cli_digests = digests(w, inp, untraced_dir)
    checks = merge_checks(check_chain(w, inp, untraced_dir, figures),
                          store.check(0, cli_digests))
    traced_dir = os.path.join(run_dir, "traced")
    with tr.span("chain") as chain_span:
        traced_records, _ = run_chain(w, inp, traced_dir, clock, log, tr)
    traced_wall = spans.duration_s(chain_span)
    traced_checks = differing(cli_digests, digests(w, inp, traced_dir),
                              "traced artifacts differ from the untraced chain's")

    m = dict.fromkeys(PER_LAYER, 0)
    notes = {}
    for r in records:
        m[f"cli.{r['stage']}_s"] = r["wall_s"]
    self_s = spans.self_times(tr.spans, chain_span["id"])
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    totals = spans.total_by_name(tr.spans, chain_span["id"])
    for name in CHAIN_CALLS:
        m[name + "_s"] = totals.get(name, 0.0)
    m["panel.write_panel_csv_s"] = sum(
        spans.total_by_name(tr.spans, root["id"]).get("panel.write_panel_csv", 0.0)
        for root in (setup_span, chain_span))
    m["trace.overhead_s"] = traced_wall - untraced_wall

    nproc_rc = 0
    with tr.span("probe"):
        m["cli.import_s"] = import_time(stage_env())
        m["numerics.f_sf_us"] = probe_f_sf(tr)
        probe_hmm(tr, w, inp.panel, m)
        if w.downstream:
            _, labels = fr.read_labels_csv(labels_path(w, inp, untraced_dir))
            probe_granger(tr, w, inp.panel, labels, m, notes)
            if figures.get("cells_tested"):
                d = inp.panel.n_factors
                m["granger.cells_tested"] = figures["cells_tested"][0]
                m["granger.cells_failed"] = (d * (d - 1) * len(np.unique(labels))
                                             - figures["cells_tested"][0])
            nproc_rc, m["granger.pairwise_blas_nproc_s"] = pairwise_at_nproc(
                w, inp, untraced_dir, os.path.join(run_dir, "nproc"), clock, log)

    attempted = len(records) + len(traced_records) + int(w.downstream)
    failed = (count_failures(records, checks)
              + count_failures(traced_records, traced_checks) + int(nproc_rc != 0))
    spans_path = os.path.join(WORK_ROOT, "spans", f"{w.name}-s{args.seed}.json")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tr.dump(spans_path)

    print(f"factorregimes benchmark (traced): workload {w.name}, seed {args.seed}, "
          f"one chain on a panel of T={w.T}")
    for name in PER_LAYER:
        print(f"  {name:<40} {m[name]:16.6f} {unit_of(name)}")
    print(f"  untraced chain {untraced_wall:.3f} s, traced chain {traced_wall:.3f} s; "
          "layer self time: " + ", ".join(f"{k} {v:.3f} s"
                                         for k, v in sorted(self_s.items())))
    detail.update(untraced_stages=records, traced_stages=traced_records,
                  untraced_wall_s=untraced_wall, traced_wall_s=traced_wall,
                  checks=checks, traced_checks=traced_checks, figures=figures,
                  layer_self_s=self_s, span_totals_s=totals,
                  notes=notes, spans_file=os.path.relpath(spans_path, ROOT),
                  digests={"panel0": cli_digests})
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": m[k], "unit": unit_of(k)} for k in PER_LAYER}}
