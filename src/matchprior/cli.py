"""Command-line interface.

Subcommands: geometry dump, estimate, sample, oracle, and run (the
config-driven experiment harness).  All numeric output is JSON or CSV and is
deterministic given the seed options.
"""

from __future__ import annotations

import csv
import json

import click
import numpy as np

from . import experiments
from .errors import MatchPriorError
from .estimators import (EstimateResult, calibrate_pm_from_map,
                         laplace_posterior_expectation, map_estimate, mle)
from .geometry import geometry_at
from .mcmc import ChainConfig, komaki_gibbs, polya_gamma_gibbs, rwmh
from .models import (GaussianKnownMeanPrecision, LogisticGLM,
                     MultivariateCauchyLocation, PoissonRate, PoissonSequence,
                     load_banknote_csv, load_dataset_csv)
from .oracle import QuadratureSpec, quad_posterior_expectation
from .priors import _split_call, parse_prior


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _catalog_model(name: str, data=None):
    """The model a catalog name such as poisson, poisson-seq:5,
    gaussian-precision, logistic, or cauchy:10 names.  Only poisson-seq and
    cauchy take a :<dim>; without one, their dimension is the data's width."""
    name = name.strip().lower()
    base, colon, arg = name.partition(":")
    if colon and base not in ("poisson-seq", "cauchy"):
        raise click.UsageError(f"only poisson-seq and cauchy take a :<dim>, "
                               f"not {base}")
    if base in ("gaussian-precision", "gaussianprecision"):
        return GaussianKnownMeanPrecision()
    if base == "poisson":
        return PoissonRate()
    if base == "logistic":
        if data is None or data.covariates is None:
            raise click.UsageError("logistic needs a data file with covariates")
        return LogisticGLM(data.covariates)
    if base in ("poisson-seq", "cauchy"):
        cls = PoissonSequence if base == "poisson-seq" else MultivariateCauchyLocation
        if colon:
            return cls(int(arg))
        if data is not None:
            return cls(data.responses.shape[1])
        raise click.UsageError(f"{base} needs a dimension, e.g. {base}:5")
    raise click.UsageError(f"unknown model {name!r}")


def build_model(name: str, data=None):
    """The model _catalog_model names.  One whose observations are not as
    wide as the data's responses is a usage error, so a mistyped dimension
    never runs another model than the one named."""
    model = _catalog_model(name, data)
    if (data is not None and not isinstance(model, LogisticGLM)
            and model.dim != data.responses.shape[1]):
        raise click.UsageError(
            f"{name.strip()} has dimension {model.dim}, but the data have "
            f"{data.responses.shape[1]} response columns")
    return model


def _load_data(path, banknote=False):
    if path is None:
        return None
    if banknote:
        return load_banknote_csv(path)
    return load_dataset_csv(path)


def _parse_point(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")])


def _komaki_args(prior_text: str) -> tuple[float, float]:
    """(beta, alpha) of a plain komaki(beta,alpha[,floor]) prior string."""
    try:
        name, args = _split_call(prior_text.strip())
    except ValueError:
        name, args = "", []
    if name != "komaki" or len(args) not in (2, 3):
        raise click.UsageError(
            "komaki-gibbs needs a plain komaki(beta,alpha[,floor]) prior, "
            f"got {prior_text!r}")
    return args[0], args[1]


class _Cli(click.Group):
    """The library rejects malformed input with ValueError; the command line
    reports it as a usage error (exit code 2) instead of a traceback.  A
    library error (MatchPriorError) is reported as "<Type>: <message>" with
    exit code 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc
        except MatchPriorError as exc:
            raise click.ClickException(f"{type(exc).__name__}: {exc}") from exc


@click.group(cls=_Cli)
def main():
    """Matching prior pairs: geometry, estimation, sampling, and experiments."""


@main.group()
def geometry():
    """Information-geometric reports."""


@geometry.command("dump")
@click.option("--model", "model_name", required=True)
@click.option("--at", "at_text", required=True,
              help="comma-separated parameter point")
@click.option("--method", type=click.Choice(["analytic", "mc"]),
              default="analytic", show_default=True)
@click.option("--seed", type=int, default=None)
@click.option("--draws", type=int, default=200_000, show_default=True)
@click.option("--data", "data_path", type=click.Path(exists=True), default=None)
def geometry_dump(model_name, at_text, method, seed, draws, data_path):
    """Print metric, connections, and skewness at a point as JSON."""
    if method == "mc" and seed is None:
        raise click.UsageError("--method mc needs --seed")
    data = _load_data(data_path)
    model = build_model(model_name, data)
    theta = _parse_point(at_text)
    kwargs = {} if method == "analytic" else {"method": "mc", "seed": seed,
                                             "draws": draws}
    rep = geometry_at(model, theta, **kwargs)
    click.echo(json.dumps(rep.to_dict(), indent=2, sort_keys=True))


@main.command()
@click.option("--model", "model_name", required=True)
@click.option("--prior", "prior_text", default=None)
@click.option("--method", type=click.Choice(["mle", "map", "calibrate",
                                             "laplace"]), default="mle",
              show_default=True)
@click.option("--data", "data_path", type=click.Path(exists=True), required=True)
@click.option("--banknote", is_flag=True,
              help="treat the data file as headerless 5-column banknote format")
@click.option("--bounds", "bound_lo", type=float, default=None,
              help="lower optimization bound applied to every coordinate")
@click.option("--tol", type=float, default=1e-8, show_default=True)
@click.option("--seed", type=int, default=None, help="recorded in output")
def estimate(model_name, prior_text, method, data_path, banknote, bound_lo,
             tol, seed):
    """Point estimation; prints the estimate and diagnostics as JSON."""
    data = _load_data(data_path, banknote)
    model = build_model(model_name, data)
    prior = parse_prior(prior_text, model) if prior_text else None
    if method != "mle" and prior is None:
        raise click.UsageError(f"{method} needs --prior")
    if method == "mle":
        res = mle(model, data, tol=tol)
    elif method == "map":
        res = map_estimate(model, data, prior, tol=tol, lower=bound_lo)
    elif method == "calibrate":
        map_res = map_estimate(model, data, prior, tol=tol, lower=bound_lo)
        res = calibrate_pm_from_map(model, data, map_res.point, lower=bound_lo)
        res.diagnostics["map_point"] = map_res.point
    else:
        mle_res = mle(model, data, tol=tol)
        res = EstimateResult(laplace_posterior_expectation(
            model, data, prior, None, mle_res.point), "LAPLACE",
            {"mle": mle_res.point})
    out = {"point": res.point, "method": res.method,
           "diagnostics": dict(res.diagnostics, seed=seed)}
    click.echo(json.dumps(_jsonable(out), indent=2, sort_keys=True))


@main.command()
@click.option("--sampler", type=click.Choice(["rwmh", "pg-gibbs",
                                              "komaki-gibbs"]), required=True)
@click.option("--model", "model_name", default=None)
@click.option("--prior", "prior_text", required=True)
@click.option("--data", "data_path", type=click.Path(exists=True), required=True)
@click.option("--banknote", is_flag=True)
@click.option("--chain-length", type=int, default=10000, show_default=True)
@click.option("--burnin", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--step", type=float, default=None,
              help="proposal step scale for rwmh")
@click.option("--proposal", type=click.Choice(["gaussian", "cauchy"]),
              default="gaussian", show_default=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
def sample(sampler, model_name, prior_text, data_path, banknote, chain_length,
           burnin, seed, step, proposal, out_path):
    """Run a posterior sampler and write draws as CSV (iter,theta1..thetad)."""
    data = _load_data(data_path, banknote)
    config = ChainConfig(length=chain_length, burnin=burnin, seed=seed,
                         step_scale=step)
    if sampler == "rwmh":
        if model_name is None:
            raise click.UsageError("rwmh needs --model")
        model = build_model(model_name, data)
        prior = parse_prior(prior_text, model)
        chain = rwmh(model, data, prior, config, proposal=proposal)
    elif sampler == "pg-gibbs":
        if data.covariates is None:
            raise click.UsageError("pg-gibbs needs covariates in the data file")
        if model_name and not isinstance(_catalog_model(model_name, data),
                                         LogisticGLM):
            raise click.UsageError(f"pg-gibbs samples the logistic model, "
                                   f"not {model_name!r}")
        prior = parse_prior(prior_text, None)
        chain = polya_gamma_gibbs(data.covariates, data.responses.ravel(),
                                  prior, config)
    else:
        beta, alpha = _komaki_args(prior_text)
        model = _catalog_model(model_name or "poisson-seq", data)
        if not (isinstance(model, PoissonSequence)
                and model.dim == data.responses.shape[1]):
            raise click.UsageError(
                f"komaki-gibbs samples one Poisson rate per data column, "
                f"{data.responses.shape[1]} here, not {model_name!r}")
        parse_prior(prior_text, model)  # validates the hyperparameters
        counts = data.responses.sum(axis=0)
        chain = komaki_gibbs(counts, data.n, np.full(counts.shape[0], beta),
                             alpha, config)
    d = chain.samples.shape[1]
    with open(out_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iter"] + [f"theta{i + 1}" for i in range(d)])
        for i, row in enumerate(chain.samples):
            w.writerow([i] + [f"{v:.12g}" for v in row])
    click.echo(json.dumps(_jsonable(
        {"posterior_mean": chain.posterior_mean, "mc_se": chain.mc_se,
         "ess": chain.ess, "acceptance_rate": chain.acceptance_rate,
         "estimator": chain.diagnostics["estimator"],
         "draws_mc_se": chain.diagnostics["draws_mc_se"],
         "seed": chain.seed, "out": str(out_path)}), indent=2, sort_keys=True))


@main.command()
@click.option("--model", "model_name", required=True)
@click.option("--prior", "prior_text", required=True)
@click.option("--data", "data_path", type=click.Path(exists=True), required=True)
@click.option("--banknote", is_flag=True)
@click.option("--abs-tol", type=float, default=1e-10, show_default=True)
def oracle(model_name, prior_text, data_path, banknote, abs_tol):
    """Posterior mean of each coordinate by deterministic quadrature."""
    data = _load_data(data_path, banknote)
    model = build_model(model_name, data)
    prior = parse_prior(prior_text, model)
    values, bounds = quad_posterior_expectation(
        model, data, prior, spec=QuadratureSpec(abs_tol=abs_tol))
    click.echo(json.dumps(_jsonable({"point": values, "error_bound": bounds,
                                     "method": "PM-QUAD"}),
                          indent=2, sort_keys=True))


@main.command()
@click.argument("config_path", type=click.Path(exists=True))
def run(config_path):
    """Run an experiment described by a JSON config file.

    The experiment field picks the harness: logistic-s1, logistic-s2,
    poisson-shrinkage or cauchy-calibration.
    """
    with open(config_path) as fh:
        raw = json.load(fh)
    config = experiments.ExperimentConfig.from_dict(raw)
    name = config.experiment
    if name in ("logistic-s1", "logistic-s2"):
        out = experiments.run_logistic_synthetic(int(name[-1]), config)
    elif name == "poisson-shrinkage":
        out = experiments.run_poisson_shrinkage(config)
    elif name == "cauchy-calibration":
        out = experiments.run_cauchy_calibration(config)
    else:
        raise click.UsageError(f"unknown experiment {name!r}")
    click.echo(str(out))


if __name__ == "__main__":
    main()
