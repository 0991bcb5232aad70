import csv
import json

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
    cfg = ExperimentConfig.from_dict(
        {"experiment": "x", "n_grid": [4, 8], "generator": "csv"})
    assert cfg.n_grid == (4, 8)
    assert cfg.extra["generator"] == "csv"


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


def test_shrinkage_run_and_gap_ordering(tmp_path):
    cfg = ExperimentConfig(experiment="poisson-shrinkage",
                           out=str(tmp_path), n_grid=(1, 10), reps=1, seed=2,
                           chain_length=3000, burnin=500, dim=12)
    out = mp.run_poisson_shrinkage(cfg)
    rows = _read_records(out)
    by = {(r["n"], r["estimator"]): r for r in rows}
    for n in ("1", "10"):
        match = float(by[(n, "pm-matching")]["gap_l2"])
        komaki = float(by[(n, "pm-komaki")]["gap_l2"])
        assert match < komaki, n


def test_shrinkage_csv_generator(tmp_path):
    counts = np.array([[3, 0, 5], [1, 2, 4]])
    path = tmp_path / "counts.csv"
    np.savetxt(path, counts, delimiter=",", fmt="%d")
    cfg = ExperimentConfig(experiment="poisson-shrinkage",
                           out=str(tmp_path / "out"), n_grid=(1, 2), reps=1,
                           seed=3, chain_length=500, burnin=100, dim=3,
                           extra={"counts_csv": str(path)})
    out = mp.run_poisson_shrinkage(cfg, generator="csv")
    rows = _read_records(out)
    assert {r["n"] for r in rows} == {"1", "2"}
    with pytest.raises(ValueError):
        mp.run_poisson_shrinkage(
            ExperimentConfig(experiment="poisson-shrinkage",
                             out=str(tmp_path / "o2"), n_grid=(5,),
                             extra={"counts_csv": str(path)}),
            generator="csv")


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


def test_timing_run(tmp_path):
    cfg = ExperimentConfig(experiment="timing", out=str(tmp_path),
                           n_grid=(8, 16), reps=3, seed=5, chain_length=100,
                           burnin=50)
    out = mp.run_timing(cfg)
    with open(out / "timing.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["n"] for r in rows} == {"8", "16"}
    assert all(float(r["sd_seconds"]) >= 0 for r in rows)
    with pytest.raises(ValueError):
        mp.run_timing(ExperimentConfig(experiment="timing",
                                       out=str(tmp_path), reps=2))


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
])
def test_cli_malformed_input_is_a_usage_error(args, tmp_path):
    data = tmp_path / "y.csv"
    data.write_text("y\n1\n3\n2\n")
    args = [str(data) if a == "DATA" else a for a in args]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 2, res.output
    assert res.output.startswith("Error: ")
    assert "Traceback" not in res.output
