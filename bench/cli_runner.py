"""Run ``subchan.cli.main(argv)`` with the benchmark's tracing wrappers installed.

Usage: python bench/cli_runner.py SPANS_PATH CLI_ARG...

The CLI writes its usual output; when it returns, the spans of the call and
the names tracing failed to restore are written to SPANS_PATH as JSON, and
the process exits with the CLI's exit code.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import subchan.cli  # noqa: E402
import tracing  # noqa: E402


def main(spans_path: str, argv: list[str]) -> int:
    tracer = tracing.Tracer()
    with tracer.root("call"):
        replaced = tracing.install(tracer)
        try:
            code = subchan.cli.main(argv)
        finally:
            tracing.uninstall(replaced)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "unrestored": tracing.unrestored(replaced)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
