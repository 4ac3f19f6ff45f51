"""Command line: simulate, loglik, fit, and validate over file-based inputs.

All numerical output is written with repr() floats, so repeated runs with
the same inputs are byte-identical. simulate, loglik and fit accept
--threads and ignore it: every command runs in one thread. simulate draws
the whole cohort in one vectorized call, and loglik evaluates the whole
dataset on one plan of fixed quadrature panels.

Exit status: 0 on success, 1 when a requested computation flags a problem
(a minus-infinite log-likelihood, a fit that did not converge, a failed
validation check), 2 on malformed inputs or usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import CoarselikError
from .inference import fit_mle, per_subject_loglik
from .io import load_model_config, load_scheme_config, read_dataset, write_dataset, write_truth
from .simulate import coarsen_cohort, record_from_codes, simulate_cohort
from .validate import run_all


def _parse_theta(text: str | None):
    if text is None:
        return None
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise CoarselikError(f"--theta: expected a comma-separated list of numbers, "
                             f"got {text!r}") from None


def _read_data(args, cfg):
    data = read_dataset(args.data, cfg.component_names)
    if data.covariates:     # no model slot reads one
        raise CoarselikError(f"{args.data}: unused covariate column(s) {', '.join(data.covariates)}")
    return data


def _cmd_simulate(args) -> int:
    cfg = load_model_config(args.model)
    scheme = load_scheme_config(args.scheme, cfg.component_names)
    model = cfg.build(_parse_theta(args.theta))
    n = args.n
    times = simulate_cohort(model, scheme.horizon, n, args.seed)
    kind, x1, x2, flag = coarsen_cohort(scheme, times)
    records = [record_from_codes(kind[i], x1[i], x2[i], flag[i]) for i in range(n)]
    write_dataset(args.out, records, component_names=cfg.component_names)
    if args.truth:
        write_truth(args.truth, times, component_names=cfg.component_names)
    print(f"wrote {n} subjects to {args.out}" + (f" (truth: {args.truth})" if args.truth else ""))
    return 0


def _cmd_loglik(args) -> int:
    cfg = load_model_config(args.model)
    scheme = load_scheme_config(args.scheme, cfg.component_names)
    data = _read_data(args, cfg)
    model = cfg.build(_parse_theta(args.theta))
    with np.errstate(divide="ignore"):
        per = per_subject_loglik(model, list(data.records), scheme.horizon,
                                 rel_tol=args.tol)
    lines = ["subject_id,loglik"]
    lines += [f"{sid},{repr(float(v))}" for sid, v in zip(data.subject_ids, per)]
    lines.append(f"total,{repr(float(per.sum()))}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    bad = [sid for sid, v in zip(data.subject_ids, per) if not np.isfinite(v)]
    if bad:
        print(f"log-likelihood is minus infinity for {len(bad)} subject(s): "
              f"{', '.join(bad[:10])}{'...' if len(bad) > 10 else ''}", file=sys.stderr)
        return 1
    return 0


def _cmd_fit(args) -> int:
    cfg = load_model_config(args.model)
    if cfg.family.k == 0:
        raise CoarselikError(f"{args.model}: no free parameters to fit "
                             "(every slot in the config is a literal number)")
    scheme = load_scheme_config(args.scheme, cfg.component_names)
    data = _read_data(args, cfg)
    init = cfg.theta_from(_parse_theta(args.theta))
    res = fit_mle(cfg.family, list(data.records), scheme.horizon, init,
                  rel_tol=args.tol)
    report = {
        "model": cfg.name,
        "n_subjects": data.n,
        "horizon": scheme.horizon,
        "loglik": res.loglik,
        "converged": res.converged,
        "n_evaluations": res.n_evaluations,
        "message": res.message,
        "theta": res.theta,
        "std_errors": res.std_errors,
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    width = max(len(nm) for nm in cfg.family.param_names)
    for nm in cfg.family.param_names:
        se = "" if res.std_errors is None else f"  (se {res.std_errors[nm]:.6g})"
        print(f"{nm:<{width}}  {res.theta[nm]:.10g}{se}")
    print(f"loglik {res.loglik:.10g}  converged {res.converged}  "
          f"evaluations {res.n_evaluations}")
    if res.n_tolerance_failures:
        print(f"{res.n_tolerance_failures} evaluation(s) ran out of quadrature budget "
              "and counted as -inf", file=sys.stderr)
    return 0 if res.converged else 1


def _cmd_validate(args) -> int:
    results = run_all(n_paths=args.n, seed=args.seed)
    for r in results:
        print(r.line())
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="coarselik",
        description="Exact likelihoods for coarsely observed irreversible multi-state data.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw a cohort and write its coarse records")
    sim.add_argument("--model", required=True, help="model config JSON")
    sim.add_argument("--scheme", required=True, help="observation scheme JSON")
    sim.add_argument("--n", type=int, required=True, help="number of subjects")
    sim.add_argument("--seed", type=int, required=True, help="64-bit unsigned seed")
    sim.add_argument("--theta", help="comma-separated parameter values (else config theta)")
    sim.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility; has no effect")
    sim.add_argument("--out", required=True, help="cohort CSV path")
    sim.add_argument("--truth", help="also write true jump times to this CSV")
    sim.set_defaults(fn=_cmd_simulate)

    ll = sub.add_parser("loglik", help="per-subject and total log-likelihood of a dataset")
    ll.add_argument("--model", required=True)
    ll.add_argument("--scheme", required=True, help="scheme JSON (defines the horizon)")
    ll.add_argument("--data", required=True, help="cohort CSV")
    ll.add_argument("--theta", help="comma-separated parameter values (else config theta)")
    ll.add_argument("--tol", type=float, default=1e-8, help="relative quadrature tolerance")
    ll.add_argument("--threads", type=int, default=1,
                    help="accepted for compatibility; has no effect")
    ll.add_argument("--out", help="also write the report to this CSV")
    ll.set_defaults(fn=_cmd_loglik)

    fit = sub.add_parser("fit", help="maximum-likelihood fit of the model's free parameters")
    fit.add_argument("--model", required=True)
    fit.add_argument("--scheme", required=True)
    fit.add_argument("--data", required=True)
    fit.add_argument("--theta", help="starting values (else config theta)")
    fit.add_argument("--tol", type=float, default=1e-8)
    fit.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility; has no effect")
    fit.add_argument("--out", help="write a JSON fit report here")
    fit.set_defaults(fn=_cmd_fit)

    val = sub.add_parser("validate", help="run the engine's cross-check suites")
    val.add_argument("--n", type=int, default=100_000, help="Monte Carlo paths per cell")
    val.add_argument("--seed", type=int, default=31)
    val.set_defaults(fn=_cmd_validate)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CoarselikError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
