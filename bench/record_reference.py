"""Rewrite ``reference.json`` from the engine in this checkout.

For every ladder model it stores the exit code of
``report <model> --format structured`` and the SHA-256 of that output with
its ``model.path`` line removed.  The benchmark counts any difference from
these as a failed operation, so run this only when a change of output is
intended and argued for::

    python3 bench/record_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import workloads
from workloads import MODELS, REFERENCE, ROOT


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from sullivan import cli

    models = {}
    for name in workloads.LADDER:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["report", str(MODELS / f"{name}.model"), "--format", "structured"])
        models[name] = {"exit": code, "sha256": workloads.output_digest(out.getvalue())}
        print(f"{name}: exit {code}", file=sys.stderr)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"models": models}, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
