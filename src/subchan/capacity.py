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
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from ._kernels import _BLOCK
from .channel import ChannelSpec, Dmc
from .errors import (
    _SUM_TOLERANCE,
    DistributionInvalidError,
    InvalidParameterError,
    NonConvergenceError,
    NotRowStochasticError,
    _check_int,
    _check_probabilities,
    _check_real,
    _check_type,
    _real_array,
)
from .grassmann import _gaussian_size, _size_text

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


def _base_divisor(log_base: float) -> float:
    return math.log2(_check_real("log base", log_base, above=1))


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
    """Capacity of the component channel for rank deficiency rho; one past the
    float range raises InvalidParameterError."""
    T = _check_int("T", T, 0)
    h = _check_int("h", h, 0, maximum=T)
    rho = _check_int("rho", rho, 0, maximum=h)
    bits = _log2_size(T, h - rho, q) - _log2_size(h, h - rho, q)
    capacity = bits / _base_divisor(log_base)
    if math.isinf(capacity):
        raise InvalidParameterError(f"capacity past the float range in log base {log_base!r}")
    return capacity


def _log2_size(n: int, ell: int, q: int) -> float:
    """log2 C(n, ell)_q: of the exact coefficient, or from its log10 when
    ``_gaussian_size`` gives that, past what Python writes as text; one past the
    float range raises InvalidParameterError, naming the coefficient."""
    size = _gaussian_size(n, ell, q)
    bits = size / math.log10(2) if isinstance(size, float) else math.log2(size)
    if math.isinf(bits):
        raise InvalidParameterError(
            f"capacity past the float range: C({_size_text(n)}, {_size_text(ell)})_{q} is {_size_text(size)}"
        )
    return bits


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
    _check_type("spec", spec, ChannelSpec)
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
    row = _check_probabilities("transition row", trans_row, DistributionInvalidError)
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
    if isinstance(comps, Iterable):
        comps = [
            (c.rho, c.selection_prob, c.capacity) if isinstance(c, ComponentCapacity) else c for c in comps
        ]
    table = _real_array("components", comps, DistributionInvalidError, 2)
    if table.shape[1] != 3 or not np.all(np.isfinite(table[:, 2])):
        raise DistributionInvalidError(f"components {table.shape} must be (rho, selection_prob, finite capacity) rows")
    sel = _check_probabilities("selection probabilities", table[:, 1], DistributionInvalidError)
    return math.fsum((sel * table[:, 2]).tolist())


def _slot_law(channel) -> tuple[np.ndarray, np.ndarray, int]:
    """A row-stochastic channel slot-major: the (|X|, m) output columns of its
    rows, the law's values broadcast to them, and |Y|.  A Dmc gives its
    support and slot values and copies nothing; a dense 2-D transition matrix
    gives each row's positive columns in order, padded to the widest row with
    zero-valued columns, which add nothing to a ``_divergences`` pass."""
    if isinstance(channel, Dmc):
        cols = channel.support
        vals = rows = np.broadcast_to(channel.values, cols.shape)
        ny = channel.num_outputs
    else:
        rows = _real_array("transition matrix", channel, NotRowStochasticError, 2)
        if not (rows.shape[0] >= 1 and (rows >= 0).all()):
            raise NotRowStochasticError(f"transition matrix {rows.shape} has no rows or a negative or NaN entry")
        ny = rows.shape[1]
        positive = rows > 0
        cols = np.argsort(~positive, axis=1, kind="stable")[:, : positive.sum(axis=1).max()]
        vals = np.take_along_axis(rows, cols, axis=1)
    worst = float(np.abs(rows.sum(axis=1) - 1.0).max())
    if not worst <= _SUM_TOLERANCE:
        raise NotRowStochasticError(f"rows must sum to 1 within {_SUM_TOLERANCE}; worst deviation {worst:.3e}")
    return cols, vals, ny


def _divergences(law, p: np.ndarray) -> np.ndarray:
    """D(W_i || pW) in nats for each row of a ``_slot_law``, with 0 log 0 = 0.
    Whole slots are read in blocks of about ``_BLOCK`` entries (one slot at
    least), each adding one ``np.bincount`` to pW and one row sum to the D."""
    cols, vals, ny = law
    step = max(1, _BLOCK // len(cols))
    blocks = [(cols[:, s : s + step], vals[:, s : s + step]) for s in range(0, cols.shape[1], step)]
    out = sum(np.bincount(c.ravel(), weights=(p[:, None] * v).ravel(), minlength=ny) for c, v in blocks)
    log_out = np.log(out, out=np.zeros(ny), where=out > 0)
    return sum((v * (np.log(v, out=np.zeros(v.shape), where=v > 0) - log_out[c])).sum(axis=1) for c, v in blocks)


def mutual_information(channel, input_dist, log_base: float = 2.0) -> float:
    """I(X; Y) = sum_x p(x) D(W_x || pW) for a transition matrix (or Dmc) and
    an input distribution, with the 0 log 0 = 0 convention."""
    law = _slot_law(channel)
    p = _check_probabilities("input distribution", input_dist, DistributionInvalidError, len(law[0]))
    return float(p @ _divergences(law, p)) / math.log(2.0) / _base_divisor(log_base)


def blahut_arimoto(
    channel,
    tol: float = 1e-9,
    max_iters: int = 10_000,
    log_base: float = 2.0,
) -> BaSolution:
    """Capacity of an arbitrary DMC by alternating maximization.

    Starts from the uniform input distribution and stops when the standard
    per-iteration upper and lower capacity bounds differ by at most ``tol``
    (in ``log_base`` units).  Output columns with zero total mass take no
    part.  Raises NonConvergenceError (carrying the best solution found) if
    ``max_iters`` is hit first.
    """
    tol = _check_real("tol", tol, above=0)
    max_iters = _check_int("max_iters", max_iters, 1)
    divisor = _base_divisor(log_base)
    law = _slot_law(channel)
    n_inputs = len(law[0])
    p = np.full(n_inputs, 1.0 / n_inputs)
    tol_nats = tol * math.log(2.0) * divisor

    for iterations in range(1, max_iters + 1):
        c = np.exp(_divergences(law, p))
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
