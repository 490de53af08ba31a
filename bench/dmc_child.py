"""Build a GF(2) channel's transition matrix in a fresh process and report on it.

Usage: python bench/dmc_child.py T H RANK_DEF [SPANS_PATH]

RANK_DEF is comma-separated.  Prints one JSON object: the matrix shape, the
worst deviation of a row sum from 1, and the mutual information of the
uniform input in bits (which equals the channel's capacity).  With
SPANS_PATH, the benchmark's tracing wrappers are installed around the work
and its spans, with the names tracing failed to restore, are written there.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import subchan  # noqa: E402


def build_and_measure(T: int, h: int, rank_def: list[float]) -> dict:
    spec = subchan.ChannelSpec(subchan.GF(2), T=T, h=h, rank_def=subchan.RankDefDist(h, rank_def))
    dmc = subchan.build_dmc(spec)
    nx = dmc.trans.shape[0]
    return {
        "shape": list(dmc.trans.shape),
        "row_sum_dev": float(np.max(np.abs(dmc.trans.sum(axis=1) - 1.0))),
        "mi_uniform": subchan.mutual_information(dmc, np.full(nx, 1.0 / nx)),
    }


def main(argv: list[str]) -> int:
    T, h, rank_def = int(argv[0]), int(argv[1]), [float(p) for p in argv[2].split(",")]
    if len(argv) < 4:
        print(json.dumps(build_and_measure(T, h, rank_def)))
        return 0
    import tracing

    tracer = tracing.Tracer()
    with tracer.root("call"):
        replaced = tracing.install(tracer)
        try:
            out = build_and_measure(T, h, rank_def)
        finally:
            tracing.uninstall(replaced)
    print(json.dumps(out))
    with open(argv[3], "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "unrestored": tracing.unrestored(replaced)}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
