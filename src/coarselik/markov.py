"""Irreversible multi-state layouts and their counting-process form.

States are base-2 codes of the component count vector: state(t) =
sum_j N_j(t) * 2^j (components indexed from 0). A layout may be "compact":
when the last component is absorbing (death), every code with that bit set
collapses onto the single state 2^(p-1), giving K = 2^(p-1) + 1 states
instead of 2^p. Transitions must flip exactly one component from 0 to 1,
which makes the state graph acyclic by construction.

`markov_to_ojc` rewrites a state-transition specification as one intensity
table per component, keyed by which other components have jumped. These two
views generate the same filtration path by path, so likelihood computations
can stay in component form throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import InvalidInputError, UnsupportedModelError
from .models import IntensityModel, PatternTableComponent


def encode_state(counts, p: int | None = None, compact: bool = False) -> int:
    """Base-2 state code of a 0/1 count vector, collapsed if compact."""
    counts = list(counts)
    if p is None:
        p = len(counts)
    if len(counts) != p:
        raise InvalidInputError(f"count vector has length {len(counts)}, expected {p}")
    code = 0
    for j, c in enumerate(counts):
        if c not in (0, 1):
            raise InvalidInputError(f"counts must be 0 or 1, got {c} at position {j}")
        code += c << j
    if compact and code >= 1 << (p - 1):
        code = 1 << (p - 1)
    return code


@dataclass(frozen=True)
class MarkovSpec:
    """State-indexed transition intensities on an irreversible layout.

    transitions maps (from_state, to_state) to a baseline hazard. With
    compact=True the layout has K = 2^(p-1) + 1 states and the last
    component is absorbing for the whole system (no transitions leave the
    collapsed state).
    """

    p: int
    transitions: Mapping[tuple[int, int], object]
    compact: bool = False

    def __post_init__(self):
        if self.p < 1:
            raise InvalidInputError(f"need at least one component, got p={self.p}")
        object.__setattr__(self, "transitions", dict(self.transitions))
        for (h, j) in self.transitions:
            if not (0 <= h < self.K and 0 <= j < self.K):
                raise InvalidInputError(f"transition ({h}, {j}) outside 0..{self.K - 1}")
            if self._flipped_component(h, j) is None:
                raise UnsupportedModelError(
                    f"transition ({h}, {j}) does not flip exactly one component 0 -> 1"
                )

    @property
    def K(self) -> int:
        return (1 << (self.p - 1)) + 1 if self.compact else 1 << self.p

    @property
    def states(self) -> tuple[int, ...]:
        if self.compact:
            return tuple(range(1 << (self.p - 1))) + ((1 << (self.p - 1)),)
        return tuple(range(1 << self.p))

    def _flipped_component(self, h: int, j: int) -> int | None:
        """Which component a transition h -> j flips, or None if invalid."""
        if self.compact:
            dead = 1 << (self.p - 1)
            if h >= dead:
                return None
            if j == dead:
                return self.p - 1
            if j > h and (j - h).bit_count() == 1 and not h & (j - h):
                return (j - h).bit_length() - 1
            return None
        if j > h and (j - h).bit_count() == 1 and not h & (j - h):
            return (j - h).bit_length() - 1
        return None

    def breakpoints(self) -> tuple[float, ...]:
        bps: set[float] = set()
        for base in self.transitions.values():
            bps.update(base.breakpoints)
        return tuple(sorted(bps))

    def rate_matrix(self, t: float) -> np.ndarray:
        """Generator matrix A(t): off-diagonal intensities, rows sum to zero."""
        A = np.zeros((self.K, self.K))
        for (h, j), base in self.transitions.items():
            A[h, j] = base.rate(t)
        A[np.diag_indices_from(A)] = -A.sum(axis=1)
        return A


def markov_to_ojc(spec: MarkovSpec) -> IntensityModel:
    """Rewrite a state-transition spec as per-component intensity tables.

    Every declared transition becomes the table entry of the component it
    flips, keyed by the jumped/not-jumped pattern its source state encodes.
    The construction is verified at t = 0.5, 1 and 2: each transition's
    intensity must be reproduced exactly by the component it maps to.
    """
    p = spec.p
    components = []
    used: set[tuple[int, int]] = set()
    for j in range(p):
        table = {}
        for bits_code in range(1 << p):
            bits = tuple((bits_code >> l) & 1 for l in range(p))
            if bits[j] == 1:
                continue
            h = encode_state(bits, p, spec.compact)
            if spec.compact and h == 1 << (p - 1):
                continue  # collapsed state: absorbing, nothing jumps
            to_bits = list(bits)
            to_bits[j] = 1
            k = encode_state(to_bits, p, spec.compact)
            base = spec.transitions.get((h, k))
            if base is not None:
                table[bits] = base
                used.add((h, k))
        components.append(PatternTableComponent(j, p, table))
    unused = set(spec.transitions) - used
    if unused:
        raise UnsupportedModelError(f"transitions {sorted(unused)} unreachable in component form")
    model = IntensityModel(components)

    for (h, k), base in spec.transitions.items():
        j = spec._flipped_component(h, k)
        # history matching source state h: its jumped components at time 0,
        # so every t on the grid sees exactly pattern h
        T = [0.0 if (h >> l) & 1 else np.inf for l in range(p)]
        for t in (0.5, 1.0, 2.0):
            got = float(model.rate(j, t, T))
            want = float(base.rate(t))
            if not np.isclose(got, want, rtol=1e-12, atol=1e-300):
                raise UnsupportedModelError(
                    f"component form disagrees with transition ({h}, {k}) at t={t}"
                )
    return model
