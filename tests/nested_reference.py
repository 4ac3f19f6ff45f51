"""A reference for the likelihood plan that does not run on it: each corner
term of a record, as likelihood._layout_codes lays it out, integrated on
quadrature.integrate_nested, with panels split at the model's rate-change
points, the pinned jump times and the bounds of the free ranges."""

import numpy as np

from coarselik.likelihood import _density, _layout_codes
from coarselik.observation import StatusCodes
from coarselik.quadrature import Dim, integrate_nested


def nested_loglik(model, atom, C, **quad_opts):
    """The log-likelihood of one record by nested adaptive quadrature;
    quad_opts are integrate_nested's, max_evals a budget per term."""
    _, S, F, R = _layout_codes(model, StatusCodes.from_records([atom]), C)
    # term t: coordinates S[:, t], flags F[:, t], free ranges R[:, t] up to j = -1
    terms = [(s, flags, [(int(j), lo, hi) for j, lo, hi in ranges if j >= 0]) for s, flags, ranges
             in zip(S.T.tolist(), F.T.tolist(), R.transpose(1, 0, 2).tolist())]
    cuts = set(model.breakpoints)
    for s, _, free in terms:
        cuts.update(s)
        cuts.update(x for _, lo, hi in free for x in (lo, hi))
    cuts = tuple(sorted(cuts))

    total = 0.0
    for s, flags, free in terms:
        if not free:
            total += float(_density(model, s, flags, C))
            continue

        def integrand(*coords, s=s, flags=flags, order=[j for j, _, _ in free]):
            x = list(s)
            for j, c in zip(order, coords):
                x[j] = c
            val = _density(model, x, flags, C)
            return val if np.ndim(val) else np.full(np.shape(coords[-1]), float(val))

        dims = tuple(Dim(lo, hi, cuts) for _, lo, hi in free)
        total += integrate_nested(integrand, dims, **quad_opts).value
    with np.errstate(divide="ignore"):
        return float(np.log(max(total, 0.0)))
