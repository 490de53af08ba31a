"""Command-line front end.

Subcommands:
    capacity   closed-form capacity, optionally verified with Blahut-Arimoto
    matrix     export the explicit transition matrix (CSV or JSON)
    simulate   Monte Carlo runs and the empirical-capacity pipeline
    count      Gaussian coefficients and ordered-basis counts

Channel parameters come either from a JSON spec file (--spec) or inline
(--q/--T/--h/--rank-def); --rank-def is deficiency-indexed, p(0),...,p(h),
where p(r) is the probability that the transfer matrix has rank h - r.

Exit codes: 0 success, 2 usage, spec or output-path error, 3 verification
failure.
The enumeration cap (default 1e6 subspaces) can be overridden with the
SUBCHAN_ENUM_CAP environment variable, an integer >= 1 (else exit 2).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

import numpy as np

from .capacity import blahut_arimoto, capacity_closed_form
from .channel import (
    ChannelSpec,
    build_dmc,
    channel_spec_from_dict,
    dmc_to_csv,
    dmc_to_json,
)
from .errors import _SUM_TOLERANCE, NonConvergenceError, SubchanError, _check_real
from .grassmann import _gaussian_size, _size_text, count_ordered_bases
from .mc import empirical_capacity_pipeline, mc_report_to_csv, mc_report_to_dict, run_mc

__all__ = ["main"]


def _add_spec_options(parser: argparse.ArgumentParser) -> None:
    src = parser.add_argument_group("channel parameters (either --spec or all inline flags)")
    src.add_argument("--spec", metavar="PATH", help="channel spec JSON file")
    src.add_argument("--q", type=int, help="field size (prime power)")
    src.add_argument("--T", type=int, help="packet length")
    src.add_argument("--h", type=int, help="input subspace dimension")
    src.add_argument(
        "--rank-def",
        dest="rank_def",
        metavar="P0,..,PH",
        help="rank deficiency probabilities, deficiency-indexed r = 0..h",
    )


def _resolve_spec(args, parser: argparse.ArgumentParser) -> ChannelSpec:
    inline = (args.q, args.T, args.h, args.rank_def)
    if args.spec is not None and any(v is not None for v in inline):
        parser.error("give either --spec or the inline --q/--T/--h/--rank-def flags, not both")
    if args.spec is not None:
        try:
            with open(args.spec, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            parser.error(f"cannot read spec file: {exc}")
        except json.JSONDecodeError as exc:
            parser.error(f"spec file is not valid JSON: {exc}")
    else:
        if any(v is None for v in inline):
            parser.error("missing channel parameters: use --spec or all of --q/--T/--h/--rank-def")
        try:
            vec = [float(x) for x in args.rank_def.split(",")]
        except ValueError:
            parser.error(f"--rank-def must be comma-separated numbers, got {args.rank_def!r}")
        data = {"q": args.q, "T": args.T, "h": args.h, "rank_def": vec}
    spec, warnings = channel_spec_from_dict(data)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return spec


def _resolve_log_base(value: str, spec: ChannelSpec) -> float:
    if value == "q":
        return float(spec.field.q)
    try:
        return _check_real("--log-base", float(value), above=1)
    except ValueError:  # not a number, or InvalidParameterError
        raise SubchanError(f"--log-base must be a finite number > 1 or 'q', got {value!r}") from None


@contextlib.contextmanager
def _output(out: str | None):
    """The text stream a report is written to: stdout, or the file ``out``;
    an OSError opening or writing the file is a SubchanError (exit 2)."""
    if out is None or out == "-":
        yield sys.stdout
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise SubchanError(f"cannot write {out}: {exc.strerror or exc}") from None


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cmd_capacity(args, parser) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0):
        parser.error(f"--tol must be a finite number > 0, got {args.tol}")
    spec = _resolve_spec(args, parser)
    base = _resolve_log_base(args.log_base, spec)
    report = capacity_closed_form(spec, base)
    verification = None
    if args.verify:
        dmc = build_dmc(spec)
        ba_tol = max(min(args.tol / 10.0, 1e-9), 1e-12)
        try:
            solution = blahut_arimoto(dmc, tol=ba_tol, log_base=base)
        except NonConvergenceError as exc:
            print(f"verification failed: {exc}", file=sys.stderr)
            return 3
        verification = {
            "ba_estimate": solution.capacity_estimate,
            "abs_difference": abs(solution.capacity_estimate - report.closed_form),
            "ba_gap_bound": solution.gap_bound,
            "ba_iterations": solution.iterations,
            "tol": args.tol,
        }

    if args.format == "json":
        payload = {"format_version": 1, **report.to_dict()}
        if verification is not None:
            payload["verification"] = verification
        text = _json_text(payload)
    else:
        lines = [f"capacity: {report.closed_form:.6f} {report.units_note}"]
        for c in report.per_component:
            lines.append(
                f"  rho={c.rho}  selection_prob={c.selection_prob:.6f}  capacity={c.capacity:.6f}"
            )
        if verification is not None:
            lines.append(
                f"verification: ba_estimate={verification['ba_estimate']:.6f}  "
                f"|difference|={verification['abs_difference']:.3e}  "
                f"gap_bound={verification['ba_gap_bound']:.3e}"
            )
        text = "\n".join(lines) + "\n"
    with _output(args.out) as fh:
        fh.write(text)

    if verification is not None and verification["abs_difference"] > args.tol:
        print(
            f"verification failed: |closed form - BA| = "
            f"{verification['abs_difference']:.3e} > tol = {args.tol:.3e}",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_matrix(args, parser) -> int:
    spec = _resolve_spec(args, parser)
    dmc = build_dmc(spec)
    nx, ny = dmc.num_inputs, dmc.num_outputs
    size_note = f"input alphabet: {nx} subspaces; output alphabet: {ny} subspaces"
    print(size_note, file=sys.stderr)
    with _output(args.out) as fh:
        if args.format == "json":
            dmc_to_json(dmc, fh)
        else:
            dmc_to_csv(dmc, fh)
    if args.audit_row_sums:
        # A row that repeats a column would export only one of its values.
        worst = abs(float(dmc.values.sum()) - 1.0)
        print(f"row sums: all {nx} rows equal 1.0 (max |sum - 1| = {worst:.3e})", file=sys.stderr)
        if worst > _SUM_TOLERANCE or (np.diff(np.sort(dmc.support, axis=1), axis=1) == 0).any():
            print("row-sum audit failed", file=sys.stderr)
            return 3
    return 0


def cmd_simulate(args, parser) -> int:
    spec = _resolve_spec(args, parser)
    if args.draws < 1:
        parser.error(f"--draws must be >= 1, got {args.draws}")
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    base = _resolve_log_base(args.log_base, spec)
    if args.pipeline:
        if args.format == "csv":
            parser.error("the pipeline report is JSON-only")
        _est, report = empirical_capacity_pipeline(spec, args.draws, args.seed, base)
        payload = {
            "format_version": 1,
            "estimated_rank_def": [float(p) for p in report.estimated_dist.probs],
            "deficiency_counts": list(report.deficiency_counts),
            "capacity_from_estimate": report.capacity_estimated.to_dict(),
            "capacity_true": report.capacity_true.to_dict(),
            "draws": report.draws,
            "seed": report.seed,
        }
        with _output(args.out) as fh:
            fh.write(_json_text(payload))
        return 0
    report = run_mc(spec, args.draws, args.seed)
    with _output(args.out) as fh:
        if args.format == "csv":
            mc_report_to_csv(report, fh)
        else:
            fh.write(_json_text(mc_report_to_dict(report)))
    return 0


def cmd_count(args, parser) -> int:
    if args.what == "gauss":
        value = _gaussian_size(args.n, args.l, args.q)
    else:
        value = count_ordered_bases(args.h, args.q)
    text = _size_text(value)
    if not text.isdigit():
        raise SubchanError(f"the count is {text}, more digits than Python writes as text")
    with _output(args.out) as fh:
        fh.write(f"{text}\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subchan",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cap = sub.add_parser("capacity", help="closed-form capacity (optionally BA-verified)")
    _add_spec_options(p_cap)
    p_cap.add_argument("--log-base", default="2", help="log base: a number > 1 or 'q' (default 2)")
    p_cap.add_argument("--verify", action="store_true", help="cross-check with Blahut-Arimoto")
    p_cap.add_argument("--tol", type=float, default=1e-6, help="verification tolerance (default 1e-6)")
    p_cap.add_argument("--format", choices=("text", "json"), default="text")
    p_cap.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    p_cap.set_defaults(func=cmd_capacity)

    p_mat = sub.add_parser("matrix", help="export the transition probability matrix")
    _add_spec_options(p_mat)
    p_mat.add_argument("--format", choices=("csv", "json"), default="csv")
    p_mat.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    p_mat.add_argument("--audit-row-sums", action="store_true", help="report the worst row-sum deviation")
    p_mat.set_defaults(func=cmd_matrix)

    p_sim = sub.add_parser("simulate", help="Monte Carlo simulation against the analytical law")
    _add_spec_options(p_sim)
    p_sim.add_argument("--draws", type=int, required=True, help="channel uses per input")
    p_sim.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p_sim.add_argument("--pipeline", action="store_true", help="estimate rank deficiencies and capacity end-to-end")
    p_sim.add_argument("--log-base", default="2", help="log base for pipeline capacities")
    p_sim.add_argument("--format", choices=("json", "csv"), default="json")
    p_sim.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    p_sim.set_defaults(func=cmd_simulate)

    p_cnt = sub.add_parser("count", help="exact subspace and basis counts")
    cnt_sub = p_cnt.add_subparsers(dest="what", required=True)
    p_gauss = cnt_sub.add_parser("gauss", help="Gaussian coefficient C(n, l)_q")
    p_gauss.add_argument("--n", type=int, required=True)
    p_gauss.add_argument("--l", type=int, required=True)
    p_gauss.add_argument("--q", type=int, required=True)
    p_gauss.add_argument("--out", metavar="PATH")
    p_bases = cnt_sub.add_parser("bases", help="ordered bases of an h-dimensional subspace")
    p_bases.add_argument("--h", type=int, required=True)
    p_bases.add_argument("--q", type=int, required=True)
    p_bases.add_argument("--out", metavar="PATH")
    p_cnt.set_defaults(func=cmd_count)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except SubchanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
