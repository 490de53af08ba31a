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

import numpy as np

from .channel import ChannelSpec, Dmc
from .errors import (
    DistributionInvalidError,
    InvalidParameterError,
    NonConvergenceError,
    NotRowStochasticError,
    _check_int,
)
from .grassmann import gaussian_coefficient

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
    T = _check_int("T", T, 0)
    h = _check_int("h", h, 0, maximum=T)
    rho = _check_int("rho", rho, 0, maximum=h)
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


def capacity_closed_form(spec: ChannelSpec, log_base: float = 2.0) -> CapacityReport:
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
    num_outputs = _check_int("num_outputs", num_outputs, row.size)
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
            item = (item.rho, item.selection_prob, item.capacity)
        _rho, sel, cap = item
        sel, cap = float(sel), float(cap)
        if not (math.isfinite(sel) and sel >= 0 and math.isfinite(cap)):
            raise DistributionInvalidError(f"component {item!r} needs a finite capacity and selection probability >= 0")
        pairs.append((sel, cap))
    total = math.fsum(sel for sel, _ in pairs)
    if not abs(total - 1.0) <= _ROW_SUM_TOL:
        raise DistributionInvalidError(f"selection probabilities sum to {total!r}, expected 1")
    return math.fsum(sel * cap for sel, cap in pairs)


def _as_transition_matrix(channel) -> np.ndarray:
    try:
        raw = np.asarray(getattr(channel, "trans", channel))
    except ValueError:  # ragged nesting
        raw = np.array(None)
    if raw.dtype.kind not in "biuf" or raw.ndim != 2 or raw.shape[0] < 1:
        raise NotRowStochasticError(f"expected a 2-D real transition matrix, got shape {raw.shape} of {raw.dtype}")
    trans = raw.astype(np.float64)
    if not np.all(trans >= 0):
        raise NotRowStochasticError("transition matrix has negative or NaN entries")
    return trans


def _positive_entries(channel) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """COO triplets (rows, cols, vals) of the positive entries of a
    row-stochastic channel, and its number of inputs.

    A Dmc supplies them from its support index; any other channel is read as
    a dense 2-D transition matrix (or an object with one in ``trans``).
    """
    if isinstance(channel, Dmc):
        rows, cols, vals = channel.triplets()
        n_inputs = channel.num_inputs
    else:
        trans = _as_transition_matrix(channel)
        rows, cols = np.nonzero(trans)
        vals = trans[rows, cols]
        n_inputs = trans.shape[0]
    sums = np.bincount(rows, weights=vals, minlength=n_inputs)
    worst = float(np.max(np.abs(sums - 1.0)))
    if not worst <= _ROW_SUM_TOL:
        raise NotRowStochasticError(f"rows must sum to 1 within {_ROW_SUM_TOL}; worst deviation {worst:.3e}")
    return rows, cols, vals, n_inputs


def mutual_information(channel, input_dist, log_base: float = 2.0) -> float:
    """I(X; Y) = H(Y) - H(Y|X) for a transition matrix (or Dmc) and an input
    distribution, with the 0 log 0 = 0 convention."""
    rows, cols, vals, n_inputs = _positive_entries(channel)
    p = np.asarray(input_dist, dtype=np.float64)
    if p.shape != (n_inputs,):
        raise DistributionInvalidError(
            f"input distribution has shape {p.shape}, expected ({n_inputs},)"
        )
    if not (np.all(p >= 0) and abs(float(p.sum()) - 1.0) <= _ROW_SUM_TOL):
        raise DistributionInvalidError("input distribution must be nonnegative and sum to 1")
    joint = p[rows] * vals
    out = np.bincount(cols, weights=joint)
    active = joint > 0
    bits = float(joint[active] @ np.log2(vals[active] / out[cols[active]]))
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
    (in ``log_base`` units).  Iterates on the positive entries only, so
    output columns with zero total mass take no part.  Raises
    NonConvergenceError (carrying the best solution found) if ``max_iters``
    is hit first.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidParameterError(f"tol must be a finite number > 0, got {tol}")
    max_iters = _check_int("max_iters", max_iters, 1)
    divisor = _base_divisor(log_base)
    rows, cols, vals, n_inputs = _positive_entries(channel)

    log_vals = np.log(vals)
    p = np.full(n_inputs, 1.0 / n_inputs)
    tol_nats = tol * math.log(2.0) * divisor

    for iterations in range(1, max_iters + 1):
        out = np.bincount(cols, weights=p[rows] * vals)
        log_out = np.log(np.where(out > 0, out, 1.0))
        kl = np.bincount(rows, weights=vals * (log_vals - log_out[cols]), minlength=n_inputs)
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
