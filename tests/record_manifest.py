"""Rewrite ``golden/manifest.json`` from the engine in this checkout.

The manifest pins what every command prints.  It runs ``cli.main``
in-process on each model file of ``bench/models`` and ``tests/fixtures``,
and on the inline models of ``INLINE``, with each argument set of
``ARGUMENT_SETS`` in both formats, plus one ``SELFTEST`` run per format.
For each invocation it stores the exit code, the SHA-256 of stdout without
its ``elapsed_seconds`` lines, and the first line of stderr.  In both
streams the repository root and the directory of the inline models are
replaced by fixed tokens, so the manifest does not depend on where the
checkout lives.  ``tests/test_manifest.py`` replays it.

Run this only when a change of output is intended, and argue for every
changed entry::

    PYTHONPATH=src python3 tests/record_manifest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden" / "manifest.json"

#: model files written at run time besides ``k4.model`` (``zoo.K4_TEXT``):
#: name -> text
INLINE = {
    "degree_5000_digits.model": "generator x2 " + "9" * 5000 + "\n",
}

ARGUMENT_SETS = (
    ("info",),
    ("validate",),
    ("cohomology", "--degree", "0", "--to", "12"),
    ("elliptic",),
    ("elliptic", "--max-degree", "7"),
    ("top-class",),
    ("murillo",),
    ("delta-cohomology", "--degree", "8"),
    ("toomer", "--method", "both"),
    ("toomer", "--method", "oracle"),
    ("toomer", "--method", "spectral"),
    ("report",),
)

SELFTEST = ("selftest", "--seed", "3", "--cases", "800")

FORMATS = ("human", "structured")


def model_files(inline_dir: Path) -> List[Path]:
    """Every model the manifest covers; the inline ones are written to
    ``inline_dir`` first."""
    from zoo import BENCH, FIXTURES, K4_TEXT, model_files

    files = model_files(BENCH, FIXTURES, parseable=False)
    for name, text in {"k4.model": K4_TEXT, **INLINE}.items():
        (inline_dir / name).write_text(text, encoding="utf-8")
        files.append(inline_dir / name)
    return files


def invocations(inline_dir: Path) -> Iterator[Tuple[str, ...]]:
    for path in model_files(inline_dir):
        for command, *options in ARGUMENT_SETS:
            for fmt in FORMATS:
                yield (command, str(path), *options, "--format", fmt)
    for fmt in FORMATS:
        yield (*SELFTEST, "--format", fmt)


def neutral(text: str, tokens: Dict[str, str]) -> str:
    """``text`` with each path of ``tokens`` replaced by its token."""
    for path, token in tokens.items():
        text = text.replace(path, token)
    return text


def run(argv: Tuple[str, ...], tokens: Dict[str, str]) -> Dict[str, object]:
    """Exit code, stdout digest and first stderr line of one in-process run."""
    from sullivan import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    lines = out.getvalue().splitlines(keepends=True)
    kept = "".join(l for l in lines if not l.startswith("elapsed_seconds = "))
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(neutral(kept, tokens).encode("utf-8")).hexdigest(),
        "stderr": neutral(err.getvalue().partition("\n")[0], tokens),
    }


def record(inline_dir: Path) -> Dict[str, Dict[str, object]]:
    """The manifest of this checkout: invocation (with its paths replaced
    by the tokens) -> entry."""
    # the inline directory first: it could lie inside the repository
    tokens = {str(inline_dir): "<inline>", str(ROOT): "<root>"}
    return {
        neutral(" ".join(argv), tokens): run(argv, tokens)
        for argv in invocations(inline_dir)
    }


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        entries = record(Path(tmp))
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(entries)} invocations recorded in {MANIFEST}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
