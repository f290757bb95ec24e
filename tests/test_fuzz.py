"""A seeded fuzzer for the model-file front end.

Each case mutates one of the 24 model files of ``bench/models`` and
``tests/fixtures`` by inserting, deleting and duplicating spans, then runs
``validate`` and ``info`` on the mutant in-process.  Whatever the text,
``main`` returns 0, 1 or 2 without raising, and a nonzero exit writes one
short ``error:`` line.  The seed is fixed, so a failure reproduces.
"""

from __future__ import annotations

import random

from sullivan import cli
from zoo import BENCH, FIXTURES, model_files

POOL = [
    path.read_text(encoding="utf-8")
    for path in model_files(BENCH, FIXTURES, parseable=False)
]

#: what an insertion draws from: digits and operators, characters that look
#: like digits or spaces but are not ASCII, and numbers no model should hold
ALPHABET = [
    *"0123456789", *"+-*/^=", "²", "٣", "\ufeff", "\u00a0", "/0", "^-1",
    "9" * 4000, " ", "\n", "#", "x2", "y5", "d ", "generator ",
]

SEED = 2013
CASES = 300


def mutate(rng: random.Random, text: str) -> str:
    """``text`` after one to four span insertions, deletions or
    duplications."""
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 12))
        op = rng.randrange(3)
        if op == 0:
            inserted = "".join(rng.choices(ALPHABET, k=rng.randint(1, 3)))
            text = text[:i] + inserted + text[i:]
        elif op == 1:
            text = text[:i] + text[j:]
        else:
            text = text[:j] + text[i:j] + text[j:]
    return text


def test_mutated_model_files_fail_with_one_short_error_line(capsys, tmp_path):
    rng = random.Random(SEED)
    path = tmp_path / "mutant.model"
    assert len(POOL) == 24
    for case in range(CASES):
        text = mutate(rng, rng.choice(POOL))
        path.write_text(text, encoding="utf-8")
        for command in ("validate", "info"):
            code = cli.main([command, str(path)])
            err = capsys.readouterr().err
            where = f"case {case}, {command} on {text[:200]!r}"
            assert code in (0, 1, 2), where
            if code:
                assert err.startswith("error: ") and err.count("\n") == 1, where
                assert len(err.encode()) < 200, where
            else:
                assert err == "", where
