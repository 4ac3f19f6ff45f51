"""Command line: simulate, loglik, fit, and validate over file-based inputs.

All numerical output is written with repr() floats, so repeated runs with
the same inputs are byte-identical. simulate, loglik and fit accept
--threads and ignore it: every command runs in one thread. simulate draws
the whole cohort in one vectorized call and writes its status codes column
by column, the cohort and truth files together, each distinct float of a
block formatted once for both; loglik reads the dataset into status codes,
evaluates it on one plan of quadrature panels, one copy of each distinct
record, and formats the results as columns too, with no record object per
subject, each subject id quoted as the cohort writer quotes it. A record
refused, malformed or past its quadrature budget, is named by the id of the
first subject with that record.

No output path (--out, --truth) may name an input file (--model, --scheme,
--data) or another output: such a call is refused before anything is read
or written.

Exit status: 0 on success, 1 when a requested computation flags a problem
(a non-finite log-likelihood, a fit that did not converge, a failed
validation check), 2 on malformed inputs or usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .errors import CoarselikError, InvalidRecordError, InvalidStartError, ToleranceError
from .inference import fit_mle, per_subject_loglik
from .io import (
    _csv_fields,
    load_model_config,
    load_scheme_config,
    read_dataset,
    write_dataset_and_truth,
)
from .quadrature import DEFAULT_REL_TOL
from .simulate import coarsen_cohort, simulate_cohort
from .validate import run_all


def _theta(args, cfg) -> np.ndarray:
    """The natural-scale parameters: --theta, else the config's theta block.
    An empty --theta field is refused by its position, and a value that is
    not finite by its parameter's name."""
    if args.theta is None:
        return cfg.theta_from()
    fields = args.theta.split(",")
    empty = [i for i, x in enumerate(fields, 1) if not x.strip()]
    if empty:
        raise CoarselikError(f"--theta: field {empty[0]} of {len(fields)} is empty "
                             f"in {args.theta!r}")
    try:
        values = [float(x) for x in fields]
    except ValueError:
        raise CoarselikError(f"--theta: expected a comma-separated list of numbers, "
                             f"got {args.theta!r}") from None
    theta = cfg.theta_from(values)
    bad = np.flatnonzero(~np.isfinite(theta))
    if bad.size:
        raise CoarselikError(f"--theta: {cfg.family.param_names[bad[0]]} is {float(theta[bad[0]])!r}")
    return theta


def _read_data(args, cfg):
    data = read_dataset(args.data, cfg.component_names)
    if data.covariates:     # no model slot reads one
        raise CoarselikError(f"{args.data}: unused covariate column(s) {', '.join(data.covariates)}")
    return data


def _by_subject_id(args, data, evaluate):
    """evaluate(), with a record it refuses named by its subject id, as a
    non-finite log-likelihood is named, not by its row, and the component
    at fault by its name: a malformed record, or one past its quadrature
    budget."""
    try:
        return evaluate()
    except (InvalidRecordError, ToleranceError) as err:
        component = getattr(err, "component", None)
        where = "" if component is None else f"component {data.component_names[component]!r}: "
        raise CoarselikError(f"{args.data}: subject {data.subject_ids[err.record_index]}: "
                             f"{where}{err.detail}") from None


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:     # one of them does not exist (yet)
        return os.path.realpath(a) == os.path.realpath(b)


def _refuse_overwrites(args) -> None:
    """Refuse an output path that names an input file or an earlier output:
    writing it would destroy the input, or interleave the two outputs."""
    taken = list(args.inputs)
    for out in args.outputs:
        if getattr(args, out) is None:
            continue
        for other in taken:
            if _same_file(getattr(args, out), getattr(args, other)):
                raise CoarselikError(f"--{out} names the same file as --{other}")
        taken.append(out)


def _cmd_simulate(args) -> int:
    cfg = load_model_config(args.model)
    scheme = load_scheme_config(args.scheme, cfg.component_names)
    model = cfg.build(_theta(args, cfg))
    times = simulate_cohort(model, scheme.horizon, args.n, args.seed)
    write_dataset_and_truth(args.out, coarsen_cohort(scheme, times), args.truth,
                            times if args.truth else None, component_names=cfg.component_names)
    print(f"wrote {args.n} subjects to {args.out}"
          + (f" (truth: {args.truth})" if args.truth else ""))
    return 0


def _cmd_loglik(args) -> int:
    cfg = load_model_config(args.model)
    scheme = load_scheme_config(args.scheme, cfg.component_names)
    data = _read_data(args, cfg)
    model = cfg.build(_theta(args, cfg))
    # a non-finite value is reported below, so the warnings carry no news
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        per = _by_subject_id(args, data, lambda: per_subject_loglik(
            model, data.codes, scheme.horizon, rel_tol=args.tol))
    # ids quoted as the cohort writer quotes them, so the report reads back as CSV
    rows = map(",".join, zip(_csv_fields(list(data.subject_ids)), map(repr, per.tolist())))
    text = "\n".join(["subject_id,loglik", *rows, f"total,{float(per.sum())!r}"]) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    for what, mask in (("minus infinity", per == -np.inf), ("nan", np.isnan(per)),
                       ("plus infinity", per == np.inf)):
        bad = np.flatnonzero(mask)
        if bad.size:
            print(f"log-likelihood is {what} for {bad.size} subject(s): "
                  f"{', '.join(data.subject_ids[i] for i in bad[:10])}"
                  f"{'...' if bad.size > 10 else ''}", file=sys.stderr)
    return 0 if np.all(np.isfinite(per)) else 1


def _cmd_fit(args) -> int:
    cfg = load_model_config(args.model)
    if cfg.family.k == 0:
        raise CoarselikError(f"{args.model}: no free parameters to fit "
                             "(every slot in the config is a literal number)")
    scheme = load_scheme_config(args.scheme, cfg.component_names)
    data = _read_data(args, cfg)
    init = _theta(args, cfg)
    try:
        res = _by_subject_id(args, data, lambda: fit_mle(
            cfg.family, data.codes, scheme.horizon, init, rel_tol=args.tol))
    except InvalidStartError as err:    # name the subject by its id, as loglik does
        sid = data.subject_ids[err.subject_index]
        raise CoarselikError(f"{args.data}: log-likelihood is not finite at the starting "
                             f"point (first offending subject: {sid})") from None
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
        with open(args.out, "w", encoding="utf-8") as fh:
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once a process: parsing leaves it
    as it was."""
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
    sim.set_defaults(fn=_cmd_simulate, inputs=("model", "scheme"), outputs=("out", "truth"))

    ll = sub.add_parser("loglik", help="per-subject and total log-likelihood of a dataset")
    ll.add_argument("--model", required=True)
    ll.add_argument("--scheme", required=True, help="scheme JSON (defines the horizon)")
    ll.add_argument("--data", required=True, help="cohort CSV")
    ll.add_argument("--theta", help="comma-separated parameter values (else config theta)")
    ll.add_argument("--tol", type=float, default=DEFAULT_REL_TOL,
                    help="relative quadrature tolerance")
    ll.add_argument("--threads", type=int, default=1,
                    help="accepted for compatibility; has no effect")
    ll.add_argument("--out", help="also write the report to this CSV")
    ll.set_defaults(fn=_cmd_loglik, inputs=("model", "scheme", "data"), outputs=("out",))

    fit = sub.add_parser("fit", help="maximum-likelihood fit of the model's free parameters")
    fit.add_argument("--model", required=True)
    fit.add_argument("--scheme", required=True)
    fit.add_argument("--data", required=True)
    fit.add_argument("--theta", help="starting values (else config theta)")
    fit.add_argument("--tol", type=float, default=DEFAULT_REL_TOL)
    fit.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility; has no effect")
    fit.add_argument("--out", help="write a JSON fit report here")
    fit.set_defaults(fn=_cmd_fit, inputs=("model", "scheme", "data"), outputs=("out",))

    val = sub.add_parser("validate", help="run the engine's cross-check suites")
    val.add_argument("--n", type=int, default=100_000, help="Monte Carlo paths per cell")
    val.add_argument("--seed", type=int, default=31)
    val.set_defaults(fn=_cmd_validate, inputs=(), outputs=())
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _refuse_overwrites(args)
        return args.fn(args)
    except CoarselikError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
