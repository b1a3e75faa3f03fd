"""End-to-end CLI pipeline on synthetic data, including determinism."""

import gc
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from factorregimes import (
    SIX_FACTOR_NAMES,
    CrossLagSpec,
    DegenerateDesignError,
    EstimationError,
    FactorPanel,
    SyntheticSpec,
    generate,
    lag_sweep,
    read_labels_csv,
    read_panel_csv,
    regime_lag_mask,
    threshold_regimes,
    write_labels_csv,
    write_panel_csv,
)
from factorregimes import cli
from factorregimes.cli import main

from conftest import table1_like_params


RAW_FF5 = """This file was created using data available at the time.

,Mkt-RF,SMB,HML,RMW,CMA,RF
19900102,1.50,0.20,-0.10,0.05,0.02,0.03
19900103,-0.75,0.11,0.22,-0.08,0.01,0.03
19900104,0.30,-0.40,0.15,0.12,-0.05,0.03
19900105,0.55,0.25,-0.30,0.02,0.08,0.03
19900108,-0.20,0.18,0.40,-0.01,0.03,0.03

 Annual Factors: January-December
"""

RAW_MOM = """,Mom
19900102,0.45
19900103,-0.22
19900104,0.31
19900105,0.12
19900108,-0.05
"""


@pytest.fixture(scope="module")
def synthetic_files(tmp_path_factory):
    """A six-factor synthetic panel large enough for every subcommand."""
    tmp = tmp_path_factory.mktemp("cli_data")
    params = table1_like_params(6)
    spec = SyntheticSpec(
        hmm=params, T=3000, seed=505,
        cross_lag=CrossLagSpec(source=2, target=1, regime=2, lag=2,
                               coefficient=0.6),
    )
    panel, labels = generate(spec)
    panel = FactorPanel(panel.dates, panel.returns, SIX_FACTOR_NAMES)
    panel_path = tmp / "panel.csv"
    write_panel_csv(panel, panel_path)
    return tmp, panel_path, panel, labels


class TestIngest:
    def test_merge_and_report(self, tmp_path, capsys):
        ff5 = tmp_path / "ff5.csv"
        mom = tmp_path / "mom.csv"
        out = tmp_path / "panel.csv"
        ff5.write_text(RAW_FF5)
        mom.write_text(RAW_MOM)
        rc = main(["ingest", str(ff5), str(mom), "--out", str(out)])
        assert rc == 0
        panel = read_panel_csv(out)
        assert panel.n_days == 5
        assert panel.n_factors == 6
        assert "T=5 d=6" in capsys.readouterr().out

    def test_date_slice(self, tmp_path):
        ff5 = tmp_path / "ff5.csv"
        mom = tmp_path / "mom.csv"
        out = tmp_path / "panel.csv"
        ff5.write_text(RAW_FF5)
        mom.write_text(RAW_MOM)
        rc = main(["ingest", str(ff5), str(mom), "--out", str(out),
                   "--start", "1990-01-03", "--end", "1990-01-05"])
        assert rc == 0
        assert read_panel_csv(out).n_days == 3

    def test_start_alone_keeps_every_later_row(self, tmp_path):
        """An open --end keeps the rows up to the panel's last, which the
        CLI used to pass as the end itself."""
        ff5, mom = tmp_path / "ff5.csv", tmp_path / "mom.csv"
        ff5.write_text(RAW_FF5)
        mom.write_text(RAW_MOM)
        outs = []
        for name, bounds in (("open", []), ("closed", ["--end", "1990-01-08"])):
            outs.append(tmp_path / f"{name}.csv")
            rc = main(["ingest", str(ff5), str(mom), "--out", str(outs[-1]),
                       "--start", "1990-01-04", *bounds])
            assert rc == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert read_panel_csv(outs[0]).dates.astype(str).tolist() == [
            "1990-01-04", "1990-01-05", "1990-01-08"]

    def test_range_past_the_panel_exit_2(self, tmp_path, capsys):
        ff5, mom = tmp_path / "ff5.csv", tmp_path / "mom.csv"
        ff5.write_text(RAW_FF5)
        mom.write_text(RAW_MOM)
        rc = main(["ingest", str(ff5), str(mom), "--out",
                   str(tmp_path / "panel.csv"), "--start", "1991-01-01"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: date range selects no rows\n"
        assert not (tmp_path / "panel.csv").exists()

    def test_missing_column_exit_2(self, tmp_path, capsys):
        ff5 = tmp_path / "ff5.csv"
        mom = tmp_path / "mom.csv"
        ff5.write_text(RAW_FF5.replace("HML", "XXX"))
        mom.write_text(RAW_MOM)
        rc = main(["ingest", str(ff5), str(mom), "--out",
                   str(tmp_path / "panel.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_out_of_order_date_exit_2_with_line(self, tmp_path, capsys):
        ff5 = tmp_path / "ff5.csv"
        mom = tmp_path / "mom.csv"
        ff5.write_text(RAW_FF5.replace("19900105", "19900103"))
        mom.write_text(RAW_MOM)
        rc = main(["ingest", str(ff5), str(mom), "--out",
                   str(tmp_path / "panel.csv")])
        assert rc == 2
        assert "line 7: date 1990-01-03 is not after" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        rc = main(["ingest", str(tmp_path / "nope.csv"),
                   str(tmp_path / "nope2.csv"), "--out",
                   str(tmp_path / "panel.csv")])
        assert rc == 2


class TestFit:
    def test_fit_writes_model_and_labels(self, synthetic_files, capsys):
        tmp, panel_path, panel, truth = synthetic_files
        model = tmp / "model.json"
        rc = main(["fit", "--panel", str(panel_path), "--k", "3",
                   "--seed", "21", "--restarts", "3",
                   "--out", str(model)])
        assert rc == 0
        doc = json.loads(model.read_text())
        assert doc["K"] == 3 and doc["family"] == "student_t"
        labels_path = tmp / "model.labels.csv"
        assert labels_path.exists()
        dates, labels = read_labels_csv(labels_path)
        assert len(labels) == panel.n_days
        out = capsys.readouterr().out
        assert "regime" in out and "self_trans" in out

    def test_fit_is_deterministic(self, synthetic_files, tmp_path):
        _, panel_path, _, _ = synthetic_files
        outs = []
        for name in ("a", "b"):
            model = tmp_path / f"{name}.json"
            rc = main(["fit", "--panel", str(panel_path), "--k", "2",
                       "--seed", "77", "--restarts", "2",
                       "--out", str(model),
                       "--labels", str(tmp_path / f"{name}.labels.csv")])
            assert rc == 0
            outs.append(model.read_bytes())
        assert outs[0] == outs[1]
        assert (tmp_path / "a.labels.csv").read_bytes() == \
            (tmp_path / "b.labels.csv").read_bytes()

    def test_k_range_selection(self, synthetic_files, tmp_path, capsys):
        _, panel_path, _, _ = synthetic_files
        model = tmp_path / "model.json"
        rc = main(["fit", "--panel", str(panel_path),
                   "--k-range", "2:3", "--seed", "5", "--restarts", "2",
                   "--out", str(model),
                   "--labels", str(tmp_path / "sel.labels.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bic" in out.lower()
        doc = json.loads(model.read_text())
        assert doc["K"] in (2, 3)

    def test_k_range_without_a_colon_exit_2_before_any_output(
            self, synthetic_files, tmp_path, capsys):
        _, panel_path, _, _ = synthetic_files
        rc = main(["fit", "--panel", str(panel_path), "--k-range", "2-4",
                   "--seed", "1", "--out", str(tmp_path / "m.json")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --k-range must look like A:B, got '2-4'\n"
        assert list(tmp_path.iterdir()) == []

    def test_k_range_prints_the_row_of_a_failed_k(self, tmp_path, capsys):
        """60 standard-normal days and one outlier: every K=2 restart needs
        the scale ridge on each step and is aborted, and K=1 is selected."""
        rng = np.random.default_rng(0)
        X = np.vstack([rng.standard_normal((60, 2)),
                       50 + 0.01 * rng.standard_normal((1, 2))])
        dates = np.datetime64("2000-01-03") + np.arange(61)
        write_panel_csv(FactorPanel(dates, X, ("A", "B")), tmp_path / "panel.csv")
        rc = main(["fit", "--panel", str(tmp_path / "panel.csv"), "--k-range", "1:2",
                   "--seed", "1", "--restarts", "2", "--out", str(tmp_path / "m.json")])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        abort = ("restart aborted: scale regularization needed on 3 consecutive "
                 "iterations")
        assert lines[2:4] == [f"2      15  failed: all 2 restarts failed: "
                              f"restart 0: {abort}; restart 1: {abort}",
                              "selected K=1 by BIC"]

    def test_gaussian_family_flag(self, synthetic_files, tmp_path):
        _, panel_path, _, _ = synthetic_files
        model = tmp_path / "g.json"
        rc = main(["fit", "--panel", str(panel_path), "--k", "2",
                   "--family", "gaussian", "--seed", "9", "--restarts", "2",
                   "--out", str(model),
                   "--labels", str(tmp_path / "g.labels.csv")])
        assert rc == 0
        doc = json.loads(model.read_text())
        assert doc["family"] == "gaussian" and doc["nu"] is None

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs CPU affinity")
    def test_fit_identical_on_one_cpu_and_on_all(self, synthetic_files, tmp_path):
        """EM restarts run in one forked process per usable CPU, or in the
        fit's own process on one CPU; a process pinned to one CPU writes the
        same bytes as one that may use them all."""
        _, panel_path, _, _ = synthetic_files
        cpu = min(os.sched_getaffinity(0))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))

        def pin():
            os.sched_setaffinity(0, {cpu})

        probe = subprocess.run(
            [sys.executable, "-c", "import os; print(len(os.sched_getaffinity(0)))"],
            preexec_fn=pin, capture_output=True, text=True, check=True)
        assert probe.stdout == "1\n"
        outputs = []
        for name, preexec in (("one", pin), ("all", None)):
            cwd = tmp_path / name
            cwd.mkdir()
            res = subprocess.run(
                [sys.executable, "-m", "factorregimes.cli", "fit",
                 "--panel", str(panel_path), "--k", "3", "--seed", "21",
                 "--restarts", "3", "--out", "model.json"],
                cwd=cwd, env=env, preexec_fn=preexec, capture_output=True,
                check=True)
            outputs.append((res.stdout, (cwd / "model.json").read_bytes(),
                            (cwd / "model.labels.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("option", ["--start", "--end"])
    def test_no_date_range_option(self, synthetic_files, tmp_path, capsys,
                                  option):
        """fit reads the panel as given: ingest alone cuts dates."""
        _, panel_path, _, _ = synthetic_files
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--panel", str(panel_path), "--k", "2", "--seed", "1",
                  option, "2000-06-01", "--out", str(tmp_path / "m.json")])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {option} 2000-06-01" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_estimation_failure_exit_3(self, synthetic_files, tmp_path,
                                       capsys, monkeypatch):
        _, panel_path, _, _ = synthetic_files

        def failing_fit(*args, **kwargs):
            raise EstimationError("every EM restart failed")

        monkeypatch.setattr(cli, "em_fit", failing_fit)
        rc = main(["fit", "--panel", str(panel_path), "--k", "2",
                   "--seed", "1", "--out", str(tmp_path / "m.json")])
        assert rc == 3
        assert "error: every EM restart failed" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_failed_ordering_after_k_selection_prints_nothing(
            self, synthetic_files, tmp_path, capsys, monkeypatch):
        _, panel_path, _, _ = synthetic_files

        def failing_order(*args, **kwargs):
            raise ValueError("ordering failed")

        monkeypatch.setattr(cli, "order_regimes", failing_order)
        rc = main(["fit", "--panel", str(panel_path), "--k-range", "2:2",
                   "--seed", "1", "--restarts", "1",
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ordering failed\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out,labels", [("m.json", "nodir/l.csv"),
                                            ("nodir/m.json", None)])
    def test_missing_output_directory_exit_2_before_any_output(
            self, synthetic_files, tmp_path, capsys, monkeypatch, out, labels):
        _, panel_path, _, _ = synthetic_files
        monkeypatch.chdir(tmp_path)
        rc = main(["fit", "--panel", str(panel_path), "--k", "2", "--seed", "1",
                   "--restarts", "1", "--out", out,
                   *(["--labels", labels] if labels else [])])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        missing = labels or out
        assert captured.err == f"error: no directory for the output file {missing}\n"
        assert list(tmp_path.iterdir()) == []

    def test_model_and_labels_on_one_file_exit_2_before_any_output(
            self, synthetic_files, tmp_path, capsys, monkeypatch):
        """The labels used to overwrite the model, after both were reported
        written."""
        _, panel_path, _, _ = synthetic_files
        monkeypatch.chdir(tmp_path)
        rc = main(["fit", "--panel", str(panel_path), "--k", "2", "--seed", "1",
                   "--restarts", "1", "--out", "m.json", "--labels", "./m.json"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: two outputs of this stage name one "
                                "file ./m.json\n")
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_exit_2_before_any_output(self, synthetic_files,
                                                    tmp_path, capsys):
        _, panel_path, _, _ = synthetic_files
        rc = main(["fit", "--panel", str(panel_path), "--k", "2", "--seed", "-1",
                   "--out", str(tmp_path / "m.json")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == ("error: seed must be a non-negative integer, "
                                "got -1\n")
        assert list(tmp_path.iterdir()) == []

    def test_seed_required(self, synthetic_files, tmp_path, capsys):
        _, panel_path, _, _ = synthetic_files
        with pytest.raises(SystemExit):
            main(["fit", "--panel", str(panel_path), "--k", "2",
                  "--out", str(tmp_path / "m.json")])


@pytest.fixture(scope="module")
def fitted(synthetic_files, tmp_path_factory):
    tmp, panel_path, panel, truth = synthetic_files
    out = tmp_path_factory.mktemp("fitted")
    model = out / "model.json"
    labels = out / "labels.csv"
    rc = main(["fit", "--panel", str(panel_path), "--k", "3",
               "--seed", "21", "--restarts", "3", "--out", str(model),
               "--labels", str(labels)])
    assert rc == 0
    return panel_path, model, labels


class TestGranger:
    def test_writes_matrix_csv(self, fitted, tmp_path, capsys):
        panel_path, _, labels = fitted
        out = tmp_path / "granger.csv"
        rc = main(["granger", "--panel", str(panel_path),
                   "--labels", str(labels), "--lmax", "4",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("source,target,regime,")
        # 6 factors -> 30 ordered pairs per regime, 3 regimes, minus failures
        assert len(lines) > 30
        assert "Bonferroni" in capsys.readouterr().out

    def test_misaligned_labels_exit_2(self, fitted, tmp_path):
        panel_path, _, _ = fitted
        bad = tmp_path / "bad_labels.csv"
        bad.write_text("date,regime\n1990-01-02,0\n")
        rc = main(["granger", "--panel", str(panel_path),
                   "--labels", str(bad), "--out",
                   str(tmp_path / "g.csv")])
        assert rc == 2


class TestValidate:
    def test_event_report(self, fitted, tmp_path, capsys):
        panel_path, _, labels = fitted
        panel = read_panel_csv(panel_path)
        events = tmp_path / "events.csv"
        lo, hi = panel.dates[200], panel.dates[500]
        lo2, hi2 = panel.dates[1000], panel.dates[1015]
        events.write_text(
            "name,start,end\n"
            f"synthetic stress,{lo},{hi}\n"
            f"too short,{lo2},{hi2}\n"
        )
        out = tmp_path / "validation.csv"
        rc = main(["validate", "--panel", str(panel_path),
                   "--labels", str(labels), "--events", str(events),
                   "--lag", "3", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.startswith("event,days,p_fwd,p_rev,classification")
        assert "UNTESTABLE" in text
        assert "# binomial:" in text
        console = capsys.readouterr().out
        assert "detection" in console.lower()

    def test_sustained_detection_prints_its_lead_time(self, tmp_path, capsys):
        """Crisis labels on days 50-59 of a window over days 40-100, and the
        volatility peak on day 70: the window's row gives the detection
        day, the peak day and the calendar days between them."""
        rng = np.random.default_rng(0)
        dates = np.busday_offset("2008-01-02", np.arange(200)).astype("datetime64[D]")
        returns = rng.standard_normal((200, 6))
        returns[70] = 10.0
        labels = np.zeros(200, dtype=int)
        labels[50:60] = 1
        write_panel_csv(FactorPanel(dates, returns, SIX_FACTOR_NAMES),
                        tmp_path / "panel.csv")
        write_labels_csv(dates, labels, tmp_path / "labels.csv")
        (tmp_path / "events.csv").write_text(f"stress,{dates[40]},{dates[100]}\n")
        rc = main(["validate", "--panel", str(tmp_path / "panel.csv"),
                   "--labels", str(tmp_path / "labels.csv"),
                   "--events", str(tmp_path / "events.csv"),
                   "--out", str(tmp_path / "validation.csv")])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[1] == (
            "stress                    0.164  2008-03-12    2008-04-09    28d")

    def test_default_event_set_used_when_unspecified(self, fitted,
                                                     tmp_path, capsys):
        # synthetic panel starts in 1990 so the 2008+ defaults do not
        # overlap; the command still succeeds with all-untestable rows
        panel_path, _, labels = fitted
        out = tmp_path / "validation.csv"
        rc = main(["validate", "--panel", str(panel_path),
                   "--labels", str(labels), "--out", str(out)])
        assert rc == 0
        assert "UNTESTABLE" in out.read_text()

    def test_lag_below_one_rejected_before_any_output(self, fitted, tmp_path,
                                                      capsys):
        panel_path, _, labels = fitted
        rc = main(["validate", "--panel", str(panel_path),
                   "--labels", str(labels), "--lag", "0",
                   "--out", str(tmp_path / "validation.csv")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: L must be >= 1\n"
        assert list(tmp_path.iterdir()) == []


    def test_negative_window_rejected_before_any_output(self, fitted, tmp_path,
                                                        capsys):
        panel_path, _, labels = fitted
        d = read_panel_csv(panel_path).dates
        events = tmp_path / "events.csv"
        events.write_text(f"stress,{d[200]},{d[500]}\n")
        out = tmp_path / "out"
        rc = main(["validate", "--panel", str(panel_path),
                   "--labels", str(labels), "--events", str(events),
                   "--window", "-5", "--out", str(out / "validation.csv")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the peak-search horizon must be >= 0, "
                                "got -5\n")
        assert not out.exists()


    def test_negative_window_rejected_without_overlapping_windows(
            self, fitted, tmp_path, capsys):
        """The panel ends in 2001, before every built-in window: the horizon
        is still checked."""
        panel_path, _, labels = fitted
        rc = main(["validate", "--panel", str(panel_path),
                   "--labels", str(labels), "--window", "-5",
                   "--out", str(tmp_path / "v.csv")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the peak-search horizon must be >= 0, "
                                "got -5\n")
        assert list(tmp_path.iterdir()) == []


class TestBacktest:
    @pytest.mark.parametrize("out,returns", [("b.json", "nodir/r.csv"),
                                             ("nodir/b.json", "r.csv")])
    def test_missing_output_directory_exit_2_before_any_output(
            self, fitted, tmp_path, capsys, monkeypatch, out, returns):
        panel_path, _, labels = fitted
        monkeypatch.chdir(tmp_path)
        rc = main(["backtest", "--panel", str(panel_path), "--labels", str(labels),
                   "--out", out, "--returns-csv", returns])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        missing = out if out.startswith("nodir") else returns
        assert captured.err == f"error: no directory for the output file {missing}\n"
        assert list(tmp_path.iterdir()) == []

    def test_report_and_returns_on_one_file_exit_2_before_any_output(
            self, fitted, tmp_path, capsys, monkeypatch):
        panel_path, _, labels = fitted
        monkeypatch.chdir(tmp_path)
        rc = main(["backtest", "--panel", str(panel_path), "--labels", str(labels),
                   "--out", "b.json", "--returns-csv", str(tmp_path / "b.json")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: two outputs of this stage name one "
                                f"file {tmp_path / 'b.json'}\n")
        assert list(tmp_path.iterdir()) == []

    def test_start_after_end_exit_2_with_the_range_rule(
            self, fitted, tmp_path, capsys, monkeypatch):
        """An inverted range gets the date-range rule's own error, as in
        ingest, where it used to be reported as selecting no rows."""
        panel_path, _, labels = fitted
        monkeypatch.chdir(tmp_path)
        rc = main(["backtest", "--panel", str(panel_path), "--labels", str(labels),
                   "--start", "2020-01-01", "--end", "2010-01-01",
                   "--out", "b.json"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: start 2020-01-01 is after end 2010-01-01\n"
        assert list(tmp_path.iterdir()) == []

    def test_report_json(self, fitted, tmp_path):
        panel_path, _, labels = fitted
        out = tmp_path / "backtest.json"
        returns = tmp_path / "returns.csv"
        rc = main(["backtest", "--panel", str(panel_path),
                   "--labels", str(labels),
                   "--start", "1990-01-01", "--end", "2002-12-31",
                   "--out", str(out), "--returns-csv", str(returns)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"strategy", "benchmark"}
        assert doc["strategy"]["n_active_days"] <= doc["benchmark"]["n_active_days"]
        back = read_panel_csv(returns)
        assert back.factor_names == ("STRATEGY", "BENCHMARK")

    def test_deterministic_output(self, fitted, tmp_path):
        panel_path, _, labels = fitted
        blobs = []
        for name in ("x", "y"):
            out = tmp_path / f"{name}.json"
            rc = main(["backtest", "--panel", str(panel_path),
                       "--labels", str(labels),
                       "--start", "1990-01-01", "--end", "2002-12-31",
                       "--out", str(out)])
            assert rc == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestPlotdata:
    def test_timeline_csv(self, fitted, tmp_path):
        panel_path, _, labels = fitted
        panel = read_panel_csv(panel_path)
        events = tmp_path / "events.csv"
        events.write_text(
            f"name,start,end\nep,{panel.dates[10]},{panel.dates[40]}\n")
        out = tmp_path / "plot.csv"
        rc = main(["plotdata", "--panel", str(panel_path),
                   "--labels", str(labels), "--events", str(events),
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "date,volatility_norm,regime,event"
        assert len(lines) == 1 + panel.n_days
        assert any(line.endswith(",ep") for line in lines[11:42])

    def test_event_markers(self, fitted, tmp_path):
        """The first listed window holding a day names it, both bounds are
        inclusive, a day in no window is blank, and a window outside the
        panel marks nothing."""
        panel_path, _, labels = fitted
        d = read_panel_csv(panel_path).dates
        events = tmp_path / "events.csv"
        events.write_text(f"early,{d[10]},{d[30]}\nlate,{d[20]},{d[40]}\n"
                          "before,1900-01-02,1900-12-31\n"
                          "after,2200-01-02,2200-12-31\n")
        out = tmp_path / "plot.csv"
        assert main(["plotdata", "--panel", str(panel_path),
                     "--labels", str(labels), "--events", str(events),
                     "--out", str(out)]) == 0
        markers = [line.split(",")[3]
                   for line in out.read_text().splitlines()[1:]]
        assert len(markers) == d.size
        assert markers[:42] == [""] * 10 + ["early"] * 21 + ["late"] * 10 + [""]
        assert set(markers[42:]) == {""}

    def test_label_beyond_int64_exit_2(self, fitted, tmp_path, capsys):
        """A label no int64 holds is a parse error naming its line, not a
        traceback, and nothing is written."""
        panel_path, _, labels = fitted
        rows = labels.read_text().splitlines()
        bad = tmp_path / "labels.csv"
        bad.write_text("\n".join([rows[0], rows[1].split(",")[0]
                                  + ",99999999999999999999999", *rows[2:]]) + "\n")
        out = tmp_path / "plot.csv"
        rc = main(["plotdata", "--panel", str(panel_path), "--labels", str(bad),
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr() == ("", "error: line 2: regime label "
                                           "99999999999999999999999 is outside "
                                           "the int64 range\n")
        assert not out.exists()


class TestRobustnessCommand:
    def test_writes_battery_outputs(self, fitted, tmp_path, capsys):
        panel_path, _, labels = fitted
        outdir = tmp_path / "robust"
        rc = main(["robustness", "--panel", str(panel_path),
                   "--labels", str(labels), "--lmax", "4",
                   "--split", "1996-01-01", "--out", str(outdir)])
        assert rc == 0
        for name in ("threshold_regimes.csv", "lag_sweep.csv",
                     "subsample_split.csv", "transition_windows.csv"):
            assert (outdir / name).exists(), name
        # the printed threshold line and every lag-sweep row are lag_sweep's
        panel = read_panel_csv(panel_path)
        _, crisis_labels = read_labels_csv(labels)
        thr_labels = threshold_regimes(panel)
        smb, hml = panel.column("SMB"), panel.column("HML")
        (thr,) = lag_sweep(smb, hml, lambda L: regime_lag_mask(thr_labels, 1, L),
                           [4])
        assert thr["error"] is None
        first = capsys.readouterr().out.splitlines()[0]
        assert first == (f"threshold regimes: HML->SMB lag {thr['L_star']} "
                         f"p={thr['p_value']:.5e}")
        crisis = int(crisis_labels.max())
        sweep = lag_sweep(smb, hml,
                          lambda L: regime_lag_mask(crisis_labels, crisis, L),
                          [5, 10, 15, 20])
        want = ["L_max,L_star,f_stat,p_value,n_obs,error"]
        for row in sweep:
            assert row["error"] is None
            want.append(f"{row['L_max']},{row['L_star']},{row['f_stat']:.6f},"
                        f"{row['p_value']:.5e},{row['n_obs']},")
        assert (outdir / "lag_sweep.csv").read_text().splitlines() == want

    def test_lag_sweep_error_rows_keep_six_fields(self, tmp_path):
        """A crisis run too short for any lag leaves the error text in the
        last cell, its comma written as a semicolon."""
        rng = np.random.default_rng(0)
        dates = np.datetime64("2005-01-03") + np.arange(400)
        write_panel_csv(FactorPanel(dates, rng.normal(size=(400, 6)),
                                    SIX_FACTOR_NAMES), tmp_path / "panel.csv")
        labels = np.zeros(400, dtype=int)
        labels[200:206] = 1
        write_labels_csv(dates, labels, tmp_path / "labels.csv")
        assert main(["robustness", "--panel", str(tmp_path / "panel.csv"),
                     "--labels", str(tmp_path / "labels.csv"),
                     "--split", "2005-06-01",
                     "--out", str(tmp_path / "robust")]) == 0
        lines = (tmp_path / "robust" / "lag_sweep.csv").read_text().splitlines()
        assert lines[1:] == [
            f"{L},,,,,no feasible lag in 1..{L}: need at least 13 "
            f"observations; have 5" for L in (5, 10, 15, 20)]

    def test_untestable_threshold_regime_is_reported(self, tmp_path, capsys):
        """61 days leave the 21-day volatility detector four crisis days,
        too few for any lag: the threshold line gives the reason."""
        rng = np.random.default_rng(0)
        dates = np.datetime64("2005-01-03") + np.arange(61)
        write_panel_csv(FactorPanel(dates, rng.normal(size=(61, 6)),
                                    SIX_FACTOR_NAMES), tmp_path / "panel.csv")
        labels = np.zeros(61, dtype=int)
        labels[30:36] = 1
        write_labels_csv(dates, labels, tmp_path / "labels.csv")
        assert main(["robustness", "--panel", str(tmp_path / "panel.csv"),
                     "--labels", str(tmp_path / "labels.csv"),
                     "--split", "2005-02-02",
                     "--out", str(tmp_path / "robust")]) == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "threshold regimes: untestable (no feasible lag in 1..15: need at "
            "least 13 observations, have 2)")

    def test_lmax_below_one_rejected_before_any_output(self, fitted, tmp_path,
                                                       capsys):
        panel_path, _, labels = fitted
        rc = main(["robustness", "--panel", str(panel_path),
                   "--labels", str(labels), "--lmax", "0",
                   "--out", str(tmp_path / "robust")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: every L_max must be >= 1\n"
        assert list(tmp_path.iterdir()) == []


    def test_bad_split_date_rejected_before_any_output(self, fitted, tmp_path,
                                                       capsys):
        panel_path, _, labels = fitted
        rc = main(["robustness", "--panel", str(panel_path),
                   "--labels", str(labels), "--lmax", "4",
                   "--split", "garbage", "--out", str(tmp_path / "robust")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "garbage" in captured.err
        assert list(tmp_path.iterdir()) == []


    def test_output_file_naming_an_input_exit_2_before_any_output(
            self, fitted, tmp_path, capsys, monkeypatch):
        """Labels read from the --out directory's own threshold_regimes.csv:
        the stage exits 2 before the battery runs and keeps the labels."""
        panel_path, _, labels = fitted
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / "threshold_regimes.csv").write_bytes(labels.read_bytes())
        monkeypatch.setattr(cli, "threshold_regimes", None)  # never reached
        rc = main(["robustness", "--panel", str(panel_path),
                   "--labels", "d/threshold_regimes.csv", "--out", "d"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: output file d/threshold_regimes.csv "
                                "is an input of this stage\n")
        assert [p.name for p in (tmp_path / "d").iterdir()] == ["threshold_regimes.csv"]
        assert (tmp_path / "d" / "threshold_regimes.csv").read_bytes() \
            == labels.read_bytes()

    def test_output_that_is_a_file_exit_2_before_any_output(
            self, fitted, tmp_path, capsys, monkeypatch):
        panel_path, _, labels = fitted
        (tmp_path / "robust").write_text("keep\n")
        monkeypatch.setattr(cli, "threshold_regimes", None)  # never reached
        rc = main(["robustness", "--panel", str(panel_path),
                   "--labels", str(labels), "--out", str(tmp_path / "robust")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: output directory {tmp_path / 'robust'} "
                                "is not a directory\n")
        assert (tmp_path / "robust").read_text() == "keep\n"


@pytest.mark.parametrize("alpha", ["-1", "0", "1", "5", "nan"])
@pytest.mark.parametrize("command,out", [("granger", "granger.csv"),
                                         ("robustness", "robust")])
def test_alpha_outside_unit_interval_exit_2(fitted, tmp_path, capsys,
                                            command, out, alpha):
    panel_path, _, labels = fitted
    rc = main([command, "--panel", str(panel_path), "--labels", str(labels),
               "--lmax", "3", f"--alpha={alpha}", "--out", str(tmp_path / out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: alpha must be in (0, 1), got ")
    assert list(tmp_path.iterdir()) == []


# Each downstream stage and the call in `cli` that does its last computation.
LAST_COMPUTATION = [
    ("granger", "pairwise_regime_matrix", "granger.csv", []),
    ("validate", "event_granger_validation", "validation.csv", []),
    ("backtest", "run_backtest", "backtest.json",
     ["--returns-csv", "returns.csv"]),
    ("robustness", "transition_window_analysis", "robust", []),
    ("plotdata", "volatility_norm", "timeline.csv", []),
]


@pytest.mark.parametrize("command,call,out,extra", LAST_COMPUTATION,
                         ids=[row[0] for row in LAST_COMPUTATION])
def test_failed_computation_leaves_no_output(fitted, tmp_path, capsys,
                                             monkeypatch, command, call, out,
                                             extra):
    """A stage whose last computation fails writes no file and prints
    nothing to stdout: it computes everything before it emits."""
    panel_path, _, labels = fitted

    def failing(*args, **kwargs):
        raise ValueError(f"{call} failed")

    monkeypatch.setattr(cli, call, failing)
    monkeypatch.chdir(tmp_path)
    rc = main([command, "--panel", str(panel_path), "--labels", str(labels),
               "--out", out, *extra])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {call} failed\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,out,extra", [
    (command, out, extra) for command, _, out, extra in LAST_COMPUTATION],
    ids=[row[0] for row in LAST_COMPUTATION])
def test_empty_panel_exit_2_before_any_output(tmp_path, capsys, monkeypatch,
                                              command, out, extra):
    """A header-only panel and labels file: every downstream stage names
    the panel and exits 2 with no file written and nothing on stdout."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "panel.csv").write_text("date," + ",".join(SIX_FACTOR_NAMES) + "\n")
    (tmp_path / "labels.csv").write_text("date,regime\n")
    rc = main([command, "--panel", "panel.csv", "--labels", "labels.csv",
               "--out", out, *extra])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: panel panel.csv has no rows\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["labels.csv",
                                                          "panel.csv"]


@pytest.mark.parametrize("command", ["ingest", "fit", "granger", "validate",
                                     "backtest", "robustness", "plotdata"])
def test_unwritable_output_exit_2_with_empty_stdout(fitted, tmp_path, capsys,
                                                    command):
    """An output file that is a directory: every stage exits 2 with one
    error line and prints nothing to stdout, also a stage whose report is
    ready before its write fails."""
    panel_path, _, labels = fitted
    out = tmp_path / "out"
    out.mkdir()
    if command == "ingest":
        (tmp_path / "ff5.csv").write_text(RAW_FF5)
        (tmp_path / "mom.csv").write_text(RAW_MOM)
        inputs = [str(tmp_path / "ff5.csv"), str(tmp_path / "mom.csv")]
    elif command == "fit":
        inputs = ["--panel", str(panel_path), "--k", "2", "--seed", "1",
                  "--restarts", "1"]
    else:
        inputs = ["--panel", str(panel_path), "--labels", str(labels)]
    if command == "robustness":  # its --out is a directory; its second file
        (out / "lag_sweep.csv").mkdir()
    rc = main([command, *inputs, "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


# per stage: its arguments, in which one output names an input, and that path
OUTPUT_NAMES_INPUT = {
    "ingest": (["ff5.csv", "mom.csv", "--out", "ff5.csv"], "ff5.csv"),
    "fit": (["--panel", "panel.csv", "--k", "2", "--seed", "1", "--restarts",
             "1", "--out", "model.json", "--labels", "panel.csv"], "panel.csv"),
    "granger": (["--panel", "panel.csv", "--labels", "labels.csv", "--lmax", "3",
                 "--out", "panel.csv"], "panel.csv"),
    "validate": (["--panel", "panel.csv", "--labels", "labels.csv", "--lag", "3",
                  "--out", "labels.csv"], "labels.csv"),
    "backtest": (["--panel", "panel.csv", "--labels", "labels.csv",
                  "--out", "report.json", "--returns-csv", "panel.csv"],
                 "panel.csv"),
    "robustness": (["--panel", "panel.csv", "--labels", "labels.csv",
                    "--lmax", "3", "--out", "labels.csv"], "labels.csv"),
    "plotdata": (["--panel", "panel.csv", "--labels", "labels.csv",
                  "--events", "events.csv", "--out", "events.csv"], "events.csv"),
}


@pytest.mark.parametrize("command", list(OUTPUT_NAMES_INPUT))
def test_output_naming_an_input_exit_2_before_any_output(
        fitted, tmp_path, capsys, monkeypatch, command):
    """An output path that is one of the stage's input files: the stage
    exits 2 with one error line, prints nothing to stdout, writes nothing
    and leaves every input's bytes as they were."""
    panel_path, _, labels = fitted
    monkeypatch.chdir(tmp_path)
    (tmp_path / "panel.csv").write_bytes(panel_path.read_bytes())
    (tmp_path / "labels.csv").write_bytes(labels.read_bytes())
    (tmp_path / "events.csv").write_text("name,start,end\n"
                                         "stress,2005-01-03,2005-06-30\n")
    (tmp_path / "ff5.csv").write_text(RAW_FF5)
    (tmp_path / "mom.csv").write_text(RAW_MOM)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    args, path = OUTPUT_NAMES_INPUT[command]
    rc = main([command, *args])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: output file {path} is an input of this stage\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestHelp:
    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for cmd in ("ingest", "fit", "granger", "validate", "backtest",
                    "plotdata", "robustness"):
            assert cmd in out

    def test_unknown_command_fails(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code != 0


def _stage_argv(case, panel_path, labels):
    """A stage that succeeds, fails on its input (2), fails in computation
    (3), or prints its help; every output path is relative."""
    return {
        "success": ["granger", "--panel", str(panel_path), "--labels", str(labels),
                    "--lmax", "3", "--out", "granger.csv"],
        "input_error": ["granger", "--panel", str(panel_path),
                        "--labels", "missing.csv", "--out", "granger.csv"],
        "computation_failure": ["fit", "--panel", "flat.csv", "--k", "2",
                                "--family", "gaussian", "--seed", "1",
                                "--restarts", "2", "--out", "model.json"],
        "help": ["--help"],
    }[case]


def _flat_panel(path):
    """40 days, 30 of them exactly zero: every K=2 Gaussian restart fails."""
    X = np.zeros((40, 1))
    X[30:, 0] = np.random.default_rng(1).normal(0, 1, 10)
    dates = np.busday_offset("2015-01-05", np.arange(40)).astype("datetime64[D]")
    write_panel_csv(FactorPanel(dates, X, ("F0",)), path)


def _call_main(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # --help
        return exc.code


STAGE_CODES = {"success": 0, "input_error": 2, "computation_failure": 3, "help": 0}

# A stage process as each launcher starts it; at exit it prints whether the
# collector is on and whether the heap is frozen.
PROCESS_PROBE = """
import atexit, gc, importlib, runpy, sys
atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0))
launcher, entry, *argv = sys.argv[1:]
sys.argv = ["factor-regimes", *argv]
if launcher == "module":  # python -m factorregimes.cli
    runpy.run_module("factorregimes.cli", run_name="__main__", alter_sys=True)
else:  # the console script, as pip writes it
    module, _, function = entry.partition(":")
    sys.exit(getattr(importlib.import_module(module), function)())
"""


class TestStageProcess:
    """A stage process runs with the cyclic collector off and exits with its
    heap frozen; `main` called in a process leaves its caller's collector as
    it was."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
    @pytest.mark.parametrize("case", sorted(STAGE_CODES))
    def test_main_leaves_the_collector_as_the_caller_had_it(
            self, fitted, tmp_path, monkeypatch, case, enabled):
        panel_path, _, labels = fitted
        monkeypatch.chdir(tmp_path)
        if case == "computation_failure":
            def degenerate(*args, **kwargs):
                raise DegenerateDesignError("design is rank-deficient")

            monkeypatch.setattr(cli, "pairwise_regime_matrix", degenerate)
            argv = _stage_argv("success", panel_path, labels)
        else:
            argv = _stage_argv(case, panel_path, labels)
        was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
        (gc.enable if enabled else gc.disable)()
        try:
            code = _call_main(argv)
            state = gc.isenabled(), gc.get_freeze_count()
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert code == STAGE_CODES[case]
        assert state == (enabled, frozen)

    @pytest.mark.parametrize("launcher", ["module", "script"])
    @pytest.mark.parametrize("case", sorted(STAGE_CODES))
    def test_stage_process_runs_without_the_collector(
            self, fitted, tmp_path, monkeypatch, capsys, case, launcher):
        """`python -m factorregimes.cli` and the `factor-regimes` script
        (the entry named in pyproject.toml) keep the collector off and
        freeze the heap, and print, exit and write as `main` does."""
        panel_path, _, labels = fitted
        argv = _stage_argv(case, panel_path, labels)
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to it
        here, there = tmp_path / "in_process", tmp_path / "process"
        for cwd in (here, there):
            cwd.mkdir()
            _flat_panel(cwd / "flat.csv")
        monkeypatch.chdir(here)
        code = _call_main(argv)
        captured = capsys.readouterr()

        pyproject = os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")
        with open(pyproject, encoding="utf-8") as fh:
            entry = re.search(r'^factor-regimes = "(.+)"$', fh.read(), re.M).group(1)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", PROCESS_PROBE, launcher, entry, *argv],
            cwd=there, env=env, capture_output=True, text=True, timeout=120)
        *lines, collector = proc.stdout.splitlines(keepends=True)
        assert collector == "False True\n"
        assert code == STAGE_CODES[case]
        assert (proc.returncode, "".join(lines), proc.stderr) == (
            code, captured.out, captured.err)
        assert {p.name: p.read_bytes() for p in there.iterdir()} == {
            p.name: p.read_bytes() for p in here.iterdir()}
