import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import matchprior as mp
from matchprior import experiments
from matchprior.cli import main
from matchprior.errors import InvalidHyperparameter
from matchprior.experiments import (ExperimentConfig, derived_seed,
                                    logistic_design, logistic_scenario_data,
                                    shrinkage_rates)


def _read_records(path):
    with open(path / "records.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _strip_timing(path):
    rows = _read_records(path)
    return [{k: v for k, v in r.items() if k != "seconds"} for r in rows]


def test_config_validation_and_from_dict():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="x", n_grid=(16, 16))
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="x", reps=0)
    # a malformed field is named, never coerced: "16" would run n = 1 and 6,
    # 16.7 would run 16 and dim 0 would run the default 100
    for field, value in (("n_grid", "16"), ("n_grid", [16.7]),
                         ("n_grid", [0, 4]), ("reps", 2.5), ("reps", True),
                         ("seed", "7"), ("chain_length", 100.0),
                         ("burnin", None), ("dim", 0), ("dim", 2.0)):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ExperimentConfig.from_dict({"experiment": "x", field: value})
    cfg = ExperimentConfig.from_dict(
        {"experiment": "x", "n_grid": [4, 8], "generator": "csv"})
    assert cfg.n_grid == (4, 8)
    assert cfg.extra["generator"] == "csv"
    # every key a harness reads from extra is accepted, top-level or nested,
    # so the accepted list cannot fall behind its readers
    src = Path(mp.__file__).parent
    read = {k for f in src.glob("*.py")
            for k in re.findall(r'extra\.get\(\s*"(\w+)"', f.read_text())}
    assert read >= {"generator", "counts_csv", "n", "m_grid", "mcmc_burnin",
                    "target"}
    for key in read:
        for d in ({"experiment": "x", key: 1},
                  {"experiment": "x", "extra": {key: 1}}):
            assert ExperimentConfig.from_dict(d).extra == {key: 1}


def test_from_dict_rejects_unknown_keys(tmp_path):
    # a misspelled or retired key must not run the study at its defaults
    bad = {"experiment": "logistic-s1", "rep": 20, "chain_lenght": 50,
           "desk": True}
    with pytest.raises(ValueError) as info:
        ExperimentConfig.from_dict(bad)
    assert str(info.value) == "unknown config keys: chain_lenght, desk, rep"
    with pytest.raises(ValueError, match="unknown config keys: chain_lenght"):
        ExperimentConfig.from_dict({"experiment": "logistic-s1",
                                    "extra": {"chain_lenght": 5}})
    cfile = tmp_path / "cfg.json"
    cfile.write_text(json.dumps({**bad, "out": str(tmp_path / "out")}))
    res = CliRunner().invoke(main, ["run", str(cfile)])
    assert res.exit_code == 2, res.output
    assert "unknown config keys: chain_lenght, desk, rep" in res.output
    assert not (tmp_path / "out").exists()


def test_derived_seed_is_stable():
    assert derived_seed(3, 16, 2) == derived_seed(3, 16, 2)
    assert derived_seed(3, 16, 2) != derived_seed(3, 16, 3)


def test_scenario_generators():
    d = logistic_design(4)
    assert np.allclose(d[:, 0], [0.25, 0.5, 0.75, 1.0])
    assert np.all(d[:, 1] == 1.0)
    y2 = logistic_scenario_data(2, 8, None)
    assert y2.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
    rng = np.random.default_rng(0)
    y1 = logistic_scenario_data(1, 200, rng)
    assert set(np.unique(y1)) <= {0.0, 1.0}
    lam = shrinkage_rates(6)
    assert lam.tolist() == [0.001, 2.0, 0.001, 2.0, 0.001, 2.0]
    with pytest.raises(ValueError):
        logistic_scenario_data(3, 4, rng)


def test_logistic_run_outputs_and_determinism(tmp_path):
    base = dict(experiment="logistic-s1", n_grid=(16,), reps=2, seed=5,
                chain_length=300, burnin=300)
    out1 = mp.run_logistic_synthetic(
        1, ExperimentConfig(out=str(tmp_path / "a"), **base))
    out2 = mp.run_logistic_synthetic(
        1, ExperimentConfig(out=str(tmp_path / "b"), **base))
    assert _strip_timing(out1) == _strip_timing(out2)
    rows = _read_records(out1)
    labels = {r["estimator"] for r in rows}
    assert labels == {"pm-gibbs", "map-ridge", "map-matching"}
    assert (out1 / "summary.csv").exists()
    meta = json.loads((out1 / "meta.json").read_text())
    assert meta["reference"] == "pm-gibbs"
    assert meta["config"]["seed"] == 5
    assert meta["unread"] == ["dim"]
    # triangle inequality between L2 and per-coordinate gaps
    for r in rows:
        coords = np.array([float(v) for v in r["gap_coords"].split(";")])
        assert float(r["gap_l2"]) <= coords.sum() + 1e-9
        assert float(r["gap_l2"]) >= coords.max() - 1e-9


def test_scenario2_runs_single_rep(tmp_path):
    cfg = ExperimentConfig(experiment="logistic-s2", out=str(tmp_path),
                           n_grid=(16,), reps=5, seed=1, chain_length=200,
                           burnin=200)
    out = mp.run_logistic_synthetic(2, cfg)
    rows = _read_records(out)
    assert {r["rep"] for r in rows} == {"0"}  # deterministic data, one rep
    assert len(rows) == 3
    assert json.loads((out / "meta.json").read_text())["unread"] == [
        "dim", "reps"]


def test_unread_lists_extra_keys_the_harness_ignores(tmp_path):
    # a logistic study reads no extra key, so another harness's keys are
    # listed as unread instead of passing silently
    cfg = ExperimentConfig.from_dict({
        "experiment": "logistic-s1", "out": str(tmp_path / "logit"),
        "n_grid": [16], "seed": 5, "chain_length": 50, "burnin": 50,
        "target": "shrinkage", "m_grid": [5]})
    assert cfg.extra == {"target": "shrinkage", "m_grid": [5]}
    meta = json.loads(
        (mp.run_logistic_synthetic(1, cfg) / "meta.json").read_text())
    assert meta["unread"] == ["dim", "extra.m_grid", "extra.target"]
    # the synthetic shrinkage generator reads generator but not counts_csv
    cfg = ExperimentConfig(experiment="poisson-shrinkage",
                           out=str(tmp_path / "shrink"), n_grid=(1,), dim=4,
                           extra={"generator": "synthetic",
                                  "counts_csv": "unused.csv"})
    meta = json.loads(
        (mp.run_poisson_shrinkage(cfg) / "meta.json").read_text())
    assert meta["unread"] == ["burnin", "chain_length", "extra.counts_csv"]


def test_shrinkage_run_and_gap_ordering(tmp_path, monkeypatch):
    def no_sampler(*args, **kwargs):
        raise AssertionError("the shrinkage study ran komaki_gibbs")

    # both posterior means are closed forms, so no chain runs
    monkeypatch.setattr(experiments, "komaki_gibbs", no_sampler)
    monkeypatch.setattr(mp.mcmc, "komaki_gibbs", no_sampler)
    cfg = ExperimentConfig(experiment="poisson-shrinkage",
                           out=str(tmp_path), n_grid=(1, 10), reps=1, seed=2,
                           chain_length=3000, burnin=500, dim=12)
    out = mp.run_poisson_shrinkage(cfg)
    rows = _read_records(out)
    by = {(r["n"], r["estimator"]): r for r in rows}
    # at n = 1 the 12 counts sum to 11, so under the matching partner
    # (beta - 1 = 2 each) sum(beta + S) = 35 = alpha: the posterior is
    # improper and the cell reports it instead of a number
    assert by[("1", "pm-matching")]["status"].startswith(
        "error:InvalidHyperparameter")
    assert by[("1", "pm-komaki")]["status"] == "ok"
    assert by[("1", "pm-komaki")]["mc_se"] == ""
    meta = json.loads((out / "meta.json").read_text())
    assert meta["unread"] == ["burnin", "chain_length"]
    match = float(by[("10", "pm-matching")]["gap_l2"])
    komaki = float(by[("10", "pm-komaki")]["gap_l2"])
    assert match < komaki


def test_shrinkage_csv_generator(tmp_path):
    counts = np.array([[3, 0, 5], [1, 2, 4]])
    path = tmp_path / "counts.csv"
    np.savetxt(path, counts, delimiter=",", fmt="%d")
    cfg = ExperimentConfig(experiment="poisson-shrinkage",
                           out=str(tmp_path / "out"), n_grid=(1, 2), reps=1,
                           seed=3, chain_length=500, burnin=100,
                           extra={"generator": "csv", "counts_csv": str(path)})
    out = mp.run_poisson_shrinkage(cfg)
    rows = _read_records(out)
    assert {r["n"] for r in rows} == {"1", "2"}
    meta = json.loads((out / "meta.json").read_text())
    assert meta["dim"] == 3
    assert meta["config"]["extra"]["generator"] == "csv"
    # the csv counts leave the chain fields, reps and seed unread
    assert meta["unread"] == ["burnin", "chain_length", "reps", "seed"]
    for extra, match in (({"generator": "csv"}, "needs extra"),
                         ({"generator": "bogus"}, "unknown generator")):
        with pytest.raises(ValueError, match=match):
            mp.run_poisson_shrinkage(ExperimentConfig(
                experiment="poisson-shrinkage", out=str(tmp_path / "o0"),
                n_grid=(1,), extra=extra))
    with pytest.raises(ValueError, match="dim 5 conflicts with the 3 columns"):
        mp.run_poisson_shrinkage(ExperimentConfig(
            experiment="poisson-shrinkage", out=str(tmp_path / "o5"),
            n_grid=(1,), dim=5,
            extra={"generator": "csv", "counts_csv": str(path)}))
    assert not (tmp_path / "o5").exists()
    # one column is one coordinate over several periods, not one period
    np.savetxt(path, counts[:, :1], delimiter=",", fmt="%d")
    out = mp.run_poisson_shrinkage(ExperimentConfig(
        experiment="poisson-shrinkage", out=str(tmp_path / "o1"),
        n_grid=(2,), chain_length=500, burnin=100,
        extra={"generator": "csv", "counts_csv": str(path)}))
    assert json.loads((out / "meta.json").read_text())["dim"] == 1
    with pytest.raises(ValueError):
        mp.run_poisson_shrinkage(
            ExperimentConfig(experiment="poisson-shrinkage",
                             out=str(tmp_path / "o2"), n_grid=(5,),
                             extra={"generator": "csv",
                                    "counts_csv": str(path)}))


def test_cauchy_run_trajectory(tmp_path):
    cfg = ExperimentConfig(experiment="cauchy-calibration",
                           out=str(tmp_path), reps=2, seed=4, dim=3,
                           extra={"m_grid": [500, 2000],
                                  "mcmc_burnin": 500, "n": 8})
    out = mp.run_cauchy_calibration(cfg)
    rows = _read_records(out)
    labels = {r["estimator"] for r in rows}
    assert labels == {"map", "calibrated", "rwmh-m500", "rwmh-m2000"}
    meta = json.loads((out / "meta.json").read_text())
    assert meta["reference"] == "rwmh-m2000"
    assert len(meta["acceptance_rate"]) == 2
    # the sweep takes n, m_grid and mcmc_burnin from extra instead
    assert meta["unread"] == ["burnin", "chain_length", "n_grid"]
    assert all(0.0 < a < 1.0 for a in meta["acceptance_rate"])


def test_error_rows_keep_the_message(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise InvalidHyperparameter("prior precision at 0, not finite")

    monkeypatch.setattr(experiments, "polya_gamma_gibbs", fail)
    cfg = ExperimentConfig(experiment="logistic-s1", out=str(tmp_path),
                           n_grid=(16,), reps=1, seed=5)
    rows = _read_records(mp.run_logistic_synthetic(1, cfg))
    assert [r["status"] for r in rows] == [
        "error:InvalidHyperparameter: prior precision at 0, not finite"]


def test_logistic_study_runs_one_gibbs_chain_per_cell(tmp_path, monkeypatch):
    # the gap-study benchmark wraps experiments.polya_gamma_gibbs and reads
    # the ess of the ChainOutput it returns, one chain per cell
    chains = []
    gibbs = experiments.polya_gamma_gibbs

    def counted(*args, **kwargs):
        chains.append(gibbs(*args, **kwargs))
        return chains[-1]

    monkeypatch.setattr(experiments, "polya_gamma_gibbs", counted)
    cfg = ExperimentConfig(experiment="logistic-s1", out=str(tmp_path),
                           n_grid=(16, 32), reps=2, seed=5, chain_length=50,
                           burnin=50)
    mp.run_logistic_synthetic(1, cfg)
    assert len(chains) == 4
    for chain in chains:
        assert isinstance(chain, mp.ChainOutput)
        assert chain.ess.shape == (2,) and np.all(np.isfinite(chain.ess))


def test_timing_run(tmp_path):
    for target, methods in (("logistic", {"map-matching", "pm-gibbs"}),
                            ("shrinkage", {"map-komaki", "pm-gibbs"})):
        cfg = ExperimentConfig(experiment="timing", out=str(tmp_path / target),
                               n_grid=(8, 16), reps=3, seed=5,
                               chain_length=100, burnin=50, dim=6,
                               extra={"target": target})
        out = mp.run_timing(cfg)
        with open(out / "timing.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["n"] for r in rows} == {"8", "16"}
        assert {r["method"] for r in rows} == methods
        assert all(float(r["sd_seconds"]) >= 0 for r in rows)
        meta = json.loads((out / "meta.json").read_text())
        assert meta["target"] == target
        assert meta["unread"] == (["dim"] if target == "logistic" else [])
    with pytest.raises(ValueError):
        mp.run_timing(ExperimentConfig(experiment="timing",
                                       out=str(tmp_path), reps=2))
    with pytest.raises(ValueError, match="bogus"):
        mp.run_timing(ExperimentConfig(experiment="timing", out=str(tmp_path),
                                       reps=3, extra={"target": "bogus"}))


def test_cli_estimate_and_oracle(tmp_path):
    data = tmp_path / "y.csv"
    data.write_text("y\n1\n3\n2\n0\n4\n")
    runner = CliRunner()
    res = runner.invoke(main, ["estimate", "--model", "poisson", "--prior",
                               "gamma(2,3)", "--method", "map", "--data",
                               str(data)])
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    assert out["point"][0] == pytest.approx(11 / 8, abs=1e-8)

    res = runner.invoke(main, ["oracle", "--model", "poisson", "--prior",
                               "gamma(2,3)", "--data", str(data)])
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    assert out["point"][0] == pytest.approx(12 / 8, abs=1e-8)

    res = runner.invoke(main, ["estimate", "--model", "poisson", "--method",
                               "map", "--data", str(data)])
    assert res.exit_code != 0  # map without prior


def test_cli_estimate_calibrate_and_laplace(tmp_path):
    data = tmp_path / "y.csv"
    data.write_text("y\n" + "\n".join(["2"] * 50) + "\n")
    runner = CliRunner()
    res = runner.invoke(main, ["estimate", "--model", "poisson", "--prior",
                               "gamma(1,1)", "--method", "calibrate",
                               "--data", str(data)])
    assert res.exit_code == 0, res.output
    cal = json.loads(res.output)
    assert cal["method"] == "CALIBRATED"
    res = runner.invoke(main, ["estimate", "--model", "poisson", "--prior",
                               "gamma(1,1)", "--method", "laplace",
                               "--data", str(data)])
    assert res.exit_code == 0, res.output
    lap = json.loads(res.output)
    assert lap["point"][0] == pytest.approx(101 / 51, abs=2e-3)


def test_cli_geometry_dump():
    runner = CliRunner()
    res = runner.invoke(main, ["geometry", "dump", "--model", "poisson",
                               "--at", "2.0"])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert rep["g"][0][0] == pytest.approx(0.5)
    assert rep["gamma_m"][0][0][0] == 0.0

    res = runner.invoke(main, ["geometry", "dump", "--model", "poisson",
                               "--at", "2.0", "--method", "mc"])
    assert res.exit_code == 2
    assert "--seed" in res.output

    res = runner.invoke(main, ["geometry", "dump", "--model", "cauchy:3",
                               "--at", "0,0,0"])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert rep["method"] == "analytic"
    assert np.array_equal(rep["g"], 4 / 6 * np.eye(3))
    assert not np.any(rep["T"])


def test_cli_sample_csv_format(tmp_path):
    data = tmp_path / "y.csv"
    data.write_text("y\n1\n3\n2\n")
    out = tmp_path / "draws.csv"
    runner = CliRunner()
    res = runner.invoke(main, ["sample", "--sampler", "rwmh", "--model",
                               "poisson", "--prior", "gamma(1,1)", "--data",
                               str(data), "--chain-length", "100", "--burnin",
                               "20", "--seed", "1", "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = out.read_text().splitlines()
    assert lines[0] == "iter,theta1"
    assert len(lines) == 101


def test_cli_komaki_sample_needs_plain_komaki_prior(tmp_path):
    data = tmp_path / "y.csv"
    data.write_text("y1,y2\n1,3\n2,0\n")
    out = tmp_path / "draws.csv"
    runner = CliRunner()
    base = ["sample", "--sampler", "komaki-gibbs", "--data", str(data),
            "--chain-length", "50", "--burnin", "10", "--out", str(out)]
    res = runner.invoke(main, base + ["--prior", "komaki(3,2,0.001)"])
    assert res.exit_code == 0, res.output
    assert len(out.read_text().splitlines()) == 51
    for text in ("komaki(3,2)/jeffreys2", "komaki(3,2)*coords", "komaki(3)",
                 "komaki(a,b)", "gamma(2,1)"):
        res = runner.invoke(main, base + ["--prior", text])
        assert res.exit_code == 2, (text, res.output)
        assert "plain komaki(beta,alpha[,floor])" in res.output


def test_cli_run_byte_determinism(tmp_path):
    cfg = {"experiment": "logistic-s1", "n_grid": [16], "reps": 1, "seed": 9,
           "chain_length": 200, "burnin": 200}
    runner = CliRunner()
    outputs = []
    for tag in ("a", "b"):
        cfile = tmp_path / f"cfg_{tag}.json"
        cfg["out"] = str(tmp_path / tag)
        cfile.write_text(json.dumps(cfg))
        res = runner.invoke(main, ["run", str(cfile)])
        assert res.exit_code == 0, res.output
        rows = _strip_timing(tmp_path / tag)
        outputs.append(rows)
    assert outputs[0] == outputs[1]


def test_cli_build_model_errors():
    from matchprior.cli import build_model
    import click
    assert build_model("cauchy:4").dim == 4
    assert build_model("poisson-seq:3").dim == 3
    with pytest.raises(click.UsageError):
        build_model("unknown-model")
    with pytest.raises(click.UsageError):
        build_model("logistic")


@pytest.mark.parametrize("args", [
    ["geometry", "dump", "--model", "poisson", "--at", "1,2"],
    ["geometry", "dump", "--model", "poisson", "--at", "abc"],
    ["geometry", "dump", "--model", "poisson", "--at", "-1"],
    ["geometry", "dump", "--model", "poisson", "--at", "1", "--method", "mc",
     "--seed", "1", "--draws", "0"],
    ["geometry", "dump", "--model", "cauchy:x", "--at", "0"],
    ["geometry", "dump", "--model", "poisson-seq:x", "--at", "1"],
    ["estimate", "--model", "poisson", "--prior", "normal(0", "--method",
     "map", "--data", "DATA"],
    ["estimate", "--model", "poisson", "--prior", "wat", "--method", "map",
     "--data", "DATA"],
    ["run", {"n_grid": "16"}],
    ["run", {"n_grid": [16.7]}],
    ["run", {"reps": 2.5}],
    ["run", {"dim": 0}],
    ["run", {"experiment": None}],
    ["run", {"extra": 5}],
    ["run", {"experiment": "cauchy-calibration", "n": 2.7}],
    ["run", {"experiment": "cauchy-calibration", "n": True}],
    ["run", {"experiment": "cauchy-calibration", "n": 0}],
    ["run", {"experiment": "cauchy-calibration", "mcmc_burnin": 99.5}],
    ["run", {"experiment": "cauchy-calibration", "mcmc_burnin": -1}],
    ["run", {"experiment": "cauchy-calibration", "m_grid": [500, 1000.9]}],
    ["run", {"experiment": "cauchy-calibration", "m_grid": "15"}],
    ["run", {"experiment": "cauchy-calibration", "m_grid": []}],
    ["run", {"experiment": "cauchy-calibration", "m_grid": [1, 1000]}],
])
def test_cli_malformed_input_is_a_usage_error(args, tmp_path):
    data = tmp_path / "y.csv"
    data.write_text("y\n1\n3\n2\n")
    # a bad cauchy-calibration key is named in the message
    key = (list(args[1])[-1] if args[0] == "run"
           and args[1].get("experiment") == "cauchy-calibration" else "")
    if args[0] == "run":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "poisson-shrinkage",
                                   "out": str(tmp_path / "out"), **args[1]}))
        args = ["run", str(cfg)]
    args = [str(data) if a == "DATA" else a for a in args]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 2, res.output
    assert res.output.startswith(f"Error: {key}")
    assert "Traceback" not in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    ["estimate", "--model", "poisson", "--prior", "gamma(-1,1)", "--method",
     "map", "--data", "DATA"],
    ["oracle", "--model", "poisson", "--prior", "gamma(-1,1)", "--data",
     "DATA"],
])
def test_cli_library_error_is_reported_by_type(args, tmp_path):
    data = tmp_path / "y.csv"
    data.write_text("y\n1\n3\n2\n")
    args = [str(data) if a == "DATA" else a for a in args]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 1, res.output
    assert res.output.startswith("Error: InvalidHyperparameter: ")
    assert "Traceback" not in res.output
    assert not isinstance(res.exception, InvalidHyperparameter)


def test_cli_estimate_mle_and_banknote_map(tmp_path):
    data = tmp_path / "y.csv"
    data.write_text("y\n1\n3\n2\n0\n4\n")
    runner = CliRunner()
    res = runner.invoke(main, ["estimate", "--model", "poisson", "--method",
                               "mle", "--data", str(data)])
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    assert out["method"] == "MLE"
    assert out["point"][0] == pytest.approx(2.0, abs=1e-9)
    # headerless banknote rows: four features and a 0/1 label
    rng = np.random.default_rng(3)
    x = rng.normal(size=(20, 4))
    y = (x[:, 0] + rng.normal(size=20) > 0).astype(int)
    bank = tmp_path / "bank.csv"
    bank.write_text("".join(f"{','.join(f'{v:.6f}' for v in row)},{label}\n"
                            for row, label in zip(x, y)))
    res = runner.invoke(main, ["estimate", "--model", "logistic", "--prior",
                               "normal(0,10)", "--method", "map", "--data",
                               str(bank), "--banknote"])
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    assert len(out["point"]) == 4 and out["diagnostics"]["converged"]


def test_cli_build_model_from_data():
    from matchprior.cli import build_model
    import click
    assert isinstance(build_model("gaussian-precision"),
                      mp.GaussianKnownMeanPrecision)
    rows = mp.Dataset(np.ones((3, 2)), np.ones((3, 4)))
    assert build_model("poisson-seq", rows).dim == 2
    assert build_model("cauchy", rows).dim == 2
    assert build_model("logistic", rows).dim == 4
    for name in ("poisson-seq", "cauchy"):
        with pytest.raises(click.UsageError, match="needs a dimension"):
            build_model(name)


def test_cli_sample_pg_gibbs_and_rwmh_needs_model(tmp_path):
    data = tmp_path / "xy.csv"
    data.write_text("y,x1,x2\n1,0.5,1\n0,-0.5,1\n1,1.5,1\n0,-1,1\n1,0.2,1\n")
    out = tmp_path / "draws.csv"
    runner = CliRunner()
    base = ["--prior", "normal(0,4)", "--data", str(data), "--chain-length",
            "100", "--burnin", "20", "--seed", "3", "--out", str(out)]
    res = runner.invoke(main, ["sample", "--sampler", "pg-gibbs", *base])
    assert res.exit_code == 0, res.output
    assert len(json.loads(res.output)["posterior_mean"]) == 2
    lines = out.read_text().splitlines()
    assert lines[0] == "iter,theta1,theta2" and len(lines) == 101
    res = runner.invoke(main, ["sample", "--sampler", "rwmh", *base])
    assert res.exit_code == 2
    assert "rwmh needs --model" in res.output
    no_x = tmp_path / "y.csv"
    no_x.write_text("y\n1\n0\n1\n")
    base[base.index(str(data))] = str(no_x)
    res = runner.invoke(main, ["sample", "--sampler", "pg-gibbs", *base])
    assert res.exit_code == 2
    assert "pg-gibbs needs covariates" in res.output


@pytest.mark.parametrize("cfg, product", [
    ({"experiment": "poisson-shrinkage", "n_grid": [1, 10], "dim": 5},
     "records.csv"),
    ({"experiment": "timing", "n_grid": [16], "reps": 3, "chain_length": 50,
      "burnin": 50}, "timing.csv"),
])
def test_cli_run_shrinkage_and_timing(cfg, product, tmp_path):
    cfile = tmp_path / "cfg.json"
    cfile.write_text(json.dumps({**cfg, "out": str(tmp_path / "out")}))
    res = CliRunner().invoke(main, ["run", str(cfile)])
    assert res.exit_code == 0, res.output
    assert res.output.strip() == str(tmp_path / "out")
    assert (tmp_path / "out" / product).exists()


def test_cli_run_unknown_experiment(tmp_path):
    cfile = tmp_path / "cfg.json"
    cfile.write_text(json.dumps({"experiment": "bogus",
                                 "out": str(tmp_path / "out")}))
    res = CliRunner().invoke(main, ["run", str(cfile)])
    assert res.exit_code == 2
    assert "unknown experiment 'bogus'" in res.output
    assert not (tmp_path / "out").exists()
