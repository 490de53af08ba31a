"""Channel capacity: closed form for the subspace channel and a generic
Blahut-Arimoto solver used as its independent numerical oracle.

The subspace channel decomposes into h + 1 strongly symmetric component
channels selected by rank deficiency rho, each with capacity

    C_rho = log C(T, h - rho)_q - log C(h, h - rho)_q,

and the channel capacity is the selection-weighted sum
C = sum_rho p_rankdef(rho) * C_rho, achieved by the uniform input
distribution.

All capacities are computed internally in bits and converted, so a base-b
result equals the base-2 result divided by log2(b) exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DistributionInvalidError,
    InvalidParameterError,
    NonConvergenceError,
    NotRowStochasticError,
    _check_int,
)
from .grassmann import gaussian_coefficient

if TYPE_CHECKING:
    from .channel import ChannelSpec

__all__ = [
    "BaSolution",
    "CapacityReport",
    "ComponentCapacity",
    "blahut_arimoto",
    "capacity_closed_form",
    "component_capacity",
    "mutual_information",
    "strongly_symmetric_capacity",
    "symmetric_capacity_from_components",
]

# Probability checks are written as `not <valid>`, so that NaN, which fails
# every comparison, is rejected.
_ROW_SUM_TOL = 1e-9


def _base_divisor(log_base: float) -> float:
    if not (math.isfinite(log_base) and log_base > 1.0):
        raise InvalidParameterError(f"log base must be a finite number > 1, got {log_base}")
    return math.log2(log_base)


@dataclass(frozen=True)
class ComponentCapacity:
    rho: int
    capacity: float
    selection_prob: float


@dataclass(frozen=True)
class CapacityReport:
    """Closed-form capacity with its per-component breakdown."""

    closed_form: float
    per_component: tuple[ComponentCapacity, ...]
    log_base: float
    units_note: str

    def to_dict(self) -> dict:
        return {
            "capacity": self.closed_form,
            "log_base": self.log_base,
            "units": self.units_note,
            "components": [
                {"rho": c.rho, "capacity": c.capacity, "selection_prob": c.selection_prob}
                for c in self.per_component
            ],
        }


@dataclass(frozen=True)
class BaSolution:
    """Blahut-Arimoto result: capacity estimate, the maximizing input
    distribution, and the upper/lower capacity bound gap at termination."""

    capacity_estimate: float
    input_distribution: np.ndarray
    iterations: int
    gap_bound: float


def component_capacity(q: int, T: int, h: int, rho: int, log_base: float = 2.0) -> float:
    """Capacity of the component channel for rank deficiency rho."""
    if not 0 <= rho <= h <= T:
        raise ValueError(f"requires 0 <= rho <= h <= T, got rho={rho}, h={h}, T={T}")
    num = gaussian_coefficient(T, h - rho, q)
    den = gaussian_coefficient(h, h - rho, q)
    bits = math.log2(num) - math.log2(den)
    return bits / _base_divisor(log_base)


def _units_note(q: int, log_base: float) -> str:
    if log_base == 2.0:
        return "bits per channel use"
    if log_base == float(q):
        return f"GF({q})-ary symbols per channel use"
    if log_base == math.e:
        return "nats per channel use"
    return f"log-base-{log_base:g} units per channel use"


def capacity_closed_form(spec: "ChannelSpec", log_base: float = 2.0) -> CapacityReport:
    """Closed-form channel capacity: the rank-deficiency-weighted sum of
    component capacities."""
    q, T, h = spec.field.q, spec.T, spec.h
    comps = tuple(
        ComponentCapacity(
            rho=rho,
            capacity=component_capacity(q, T, h, rho, log_base),
            selection_prob=float(spec.rank_def.probs[rho]),
        )
        for rho in range(h + 1)
    )
    closed = math.fsum(c.selection_prob * c.capacity for c in comps)
    return CapacityReport(closed, comps, float(log_base), _units_note(q, log_base))


def strongly_symmetric_capacity(trans_row, num_outputs: int, log_base: float = 2.0) -> float:
    """Capacity of a strongly symmetric channel from one of its rows:
    log |Y| - H(row), achieved by the uniform input distribution."""
    row = np.asarray(trans_row, dtype=np.float64)
    if not (np.all(row >= 0) and abs(float(row.sum()) - 1.0) <= _ROW_SUM_TOL):
        raise DistributionInvalidError("transition row must be a probability vector")
    if num_outputs < row.size:
        raise ValueError(f"row has {row.size} entries but only {num_outputs} outputs declared")
    pos = row[row > 0]
    entropy_bits = float(-(pos * np.log2(pos)).sum())
    bits = math.log2(num_outputs) - entropy_bits
    return bits / _base_divisor(log_base)


def symmetric_capacity_from_components(comps) -> float:
    """Selection-probability-weighted sum of component capacities.

    Accepts ComponentCapacity items or (rho, selection_prob, capacity)
    triples; selection probabilities must sum to 1.
    """
    pairs = []
    for item in comps:
        if isinstance(item, ComponentCapacity):
            pairs.append((item.selection_prob, item.capacity))
        else:
            _rho, sel, cap = item
            pairs.append((float(sel), float(cap)))
    total = math.fsum(sel for sel, _ in pairs)
    if not abs(total - 1.0) <= _ROW_SUM_TOL:
        raise DistributionInvalidError(f"selection probabilities sum to {total!r}, expected 1")
    return math.fsum(sel * cap for sel, cap in pairs)


def _as_transition_matrix(channel) -> np.ndarray:
    trans = np.asarray(getattr(channel, "trans", channel), dtype=np.float64)
    if trans.ndim != 2 or trans.shape[0] < 1:
        raise NotRowStochasticError(f"expected a 2-D transition matrix, got shape {trans.shape}")
    if not np.all(trans >= 0):
        raise NotRowStochasticError("transition matrix has negative or NaN entries")
    sums = trans.sum(axis=1)
    worst = float(np.max(np.abs(sums - 1.0)))
    if not worst <= _ROW_SUM_TOL:
        raise NotRowStochasticError(f"rows must sum to 1 within {_ROW_SUM_TOL}; worst deviation {worst:.3e}")
    return trans


def mutual_information(channel, input_dist, log_base: float = 2.0) -> float:
    """I(X; Y) = H(Y) - H(Y|X) for a transition matrix (or Dmc) and an input
    distribution, with the 0 log 0 = 0 convention."""
    trans = _as_transition_matrix(channel)
    p = np.asarray(input_dist, dtype=np.float64)
    if p.shape != (trans.shape[0],):
        raise DistributionInvalidError(
            f"input distribution has shape {p.shape}, expected ({trans.shape[0]},)"
        )
    if not (np.all(p >= 0) and abs(float(p.sum()) - 1.0) <= _ROW_SUM_TOL):
        raise DistributionInvalidError("input distribution must be nonnegative and sum to 1")
    out = p @ trans
    active = (trans > 0) & (p[:, None] > 0)
    safe_out = np.where(out > 0, out, 1.0)
    logs = np.where(active, np.log2(np.where(active, trans, 1.0) / safe_out[None, :]), 0.0)
    bits = float((np.where(active, p[:, None] * trans, 0.0) * logs).sum())
    return bits / _base_divisor(log_base)


def blahut_arimoto(
    channel,
    tol: float = 1e-9,
    max_iters: int = 10_000,
    log_base: float = 2.0,
) -> BaSolution:
    """Capacity of an arbitrary DMC by alternating maximization.

    Starts from the uniform input distribution and stops when the standard
    per-iteration upper and lower capacity bounds differ by at most ``tol``
    (in ``log_base`` units).  Output columns with zero total mass are dropped
    before iterating.  Raises NonConvergenceError (carrying the best solution
    found) if ``max_iters`` is hit first.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidParameterError(f"tol must be a finite number > 0, got {tol}")
    max_iters = _check_int("max_iters", max_iters, 1)
    divisor = _base_divisor(log_base)
    trans = _as_transition_matrix(channel)
    trans = trans[:, trans.sum(axis=0) > 0]
    n_inputs = trans.shape[0]

    log_trans = np.where(trans > 0, np.log(np.where(trans > 0, trans, 1.0)), 0.0)
    p = np.full(n_inputs, 1.0 / n_inputs)
    tol_nats = tol * math.log(2.0) * divisor

    for iterations in range(1, max_iters + 1):
        out = p @ trans
        kl = (trans * (log_trans - np.where(out > 0, np.log(np.where(out > 0, out, 1.0)), 0.0))).sum(axis=1)
        c = np.exp(kl)
        s = float(p @ c)
        lower = math.log(s)
        upper = math.log(float(c.max()))
        # upper >= lower exactly; float rounding can push the difference below 0.
        gap_nats = max(upper - lower, 0.0)
        p = p * c / s
        p /= p.sum()
        if gap_nats <= tol_nats:
            break

    solution = BaSolution(
        capacity_estimate=lower / math.log(2.0) / divisor,
        input_distribution=p,
        iterations=iterations,
        gap_bound=gap_nats / math.log(2.0) / divisor,
    )
    if gap_nats > tol_nats:
        raise NonConvergenceError(
            f"Blahut-Arimoto did not reach gap <= {tol} within {max_iters} iterations "
            f"(best gap {solution.gap_bound:.3e})",
            solution=solution,
        )
    return solution
