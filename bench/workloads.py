"""The benchmark's workloads, their inputs and the checks on their outputs.

Every operation is one call of the public entry point
``sullivan.cli.main(argv)``: one ``report`` of one model file, or one
``selftest`` run.  An operation fails when it raises, when its exit code
differs from the reference, or when its output is wrong:

* ladder models (``models/*.model``) are checked against ``reference.json``,
  which holds the exit code and the SHA-256 of the structured report with
  its ``model.path`` line removed, recorded from the engine as it was when
  the benchmark was written (``record_reference.py`` rewrites it);
* the two reference models are also compared line by line with the golden
  reports in ``tests/golden``;
* random models and selftest runs have no stored output, so invariants that
  any correct engine satisfies are checked instead.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MODELS = BENCH / "models"
REFERENCE = BENCH / "reference.json"
GOLDEN = {
    "elliptic_pure_n37": ROOT / "tests" / "golden" / "report_n37.txt",
    "elliptic_pure_n35": ROOT / "tests" / "golden" / "report_n35.txt",
}

#: The 15 fixtures of ``sullivan.models.ALL_MODELS``, in that order.
FIXTURES = [
    "sphere_s2",
    "exterior_two_odd",
    "nonelliptic_truncation_n37",
    "projective_plane",
    "projective_plane_times_s3",
    "two_projective_planes",
    "tower_one_even",
    "tower_one_even_sphere_factor",
    "tower_two_even_disjoint",
    "tower_two_even_mixed",
    "tower_word4_closure",
    "elliptic_pure_n37",
    "elliptic_pure_n35",
    "nonpure_n23",
    "nonpure_n23_wide",
]
LADDER = FIXTURES + ["three_even", "n37_cp2", "five_even_k2"]

#: Largest degree-N basis a random zoo model may have, so that each stays
#: small.  The shapes in ``ZOO_SHAPES`` reach at most 7.
ZOO_TOP_BASIS_CAP = 8
#: Cases per randomized law check in ``selftest_laws``.  At this size the
#: five random checks take longer than the fixed Poincare check.
SELFTEST_CASES = 800

Check = Callable[[int, str], Optional[str]]


@dataclass
class Operation:
    label: str
    argv: List[str]
    check: Check


@dataclass
class Workload:
    name: str
    why: str
    operations: List[Operation]
    model_files: List[str] = field(default_factory=list)


def strip_path(output: str) -> str:
    """The structured output without its ``model.path`` line."""
    return "".join(
        line for line in output.splitlines(keepends=True)
        if not line.startswith("model.path = ")
    )


def output_digest(output: str) -> str:
    return hashlib.sha256(strip_path(output).encode("utf-8")).hexdigest()


def load_reference() -> Dict[str, Dict[str, object]]:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["models"]


def _pairs(output: str) -> Dict[str, str]:
    out = {}
    for line in output.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def reference_check(name: str, reference: Dict[str, Dict[str, object]]) -> Check:
    expected = reference[name]
    golden = GOLDEN.get(name)

    def check(code: int, output: str) -> Optional[str]:
        if code != expected["exit"]:
            return f"exit code {code}, reference {expected['exit']}"
        if output_digest(output) != expected["sha256"]:
            return "output differs from the reference hash"
        if golden is not None and strip_path(output) != strip_path(golden.read_text()):
            return f"output differs from {golden.name}"
        return None

    return check


def random_model_check(code: int, output: str) -> Optional[str]:
    """Invariants of a report on an elliptic pure k = 3 model."""
    if code != 0:
        return f"exit code {code}"
    pairs = _pairs(output)
    if pairs.get("toomer.agree") != "true":
        return "oracle and spectral e0 disagree"
    n = int(pairs["model.formal_dimension"])
    if pairs.get(f"cohomology.dim.{n}") != "1":
        return f"dim H^{n} is not 1"
    for i in range(n + 1):
        if pairs.get(f"cohomology.dim.{i}") != pairs.get(f"cohomology.dim.{n - i}"):
            return f"Poincare duality fails in degree {i}"
    return None


def selftest_check(seed: int, cases: int) -> Check:
    always_full = ("graded_commutativity", "leibniz", "d_squared")
    names = always_full + (
        "delta_squared", "delta_derivation", "basis_counts", "poincare_duality",
    )

    def check(code: int, output: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        pairs = _pairs(output)
        if pairs.get("selftest.seed") != str(seed):
            return "wrong seed echoed"
        for name in names:
            if pairs.get(f"selftest.{name}.ok") != "true":
                return f"check {name} did not pass"
        for name in always_full:
            if pairs.get(f"selftest.{name}.cases") != str(cases):
                return f"check {name} ran the wrong number of cases"
        return None

    return check


# ---------------------------------------------------------------------------
# random pure models


def random_pure_model(rng: random.Random, degrees: Tuple[int, ...], powers: Tuple[int, ...]) -> str:
    """Model-file text of a random pure model with k = 3, elliptic by
    construction.

    Even generators x_1..x_m of the given degrees, one odd generator y_j per
    even one, and ``d y_j = x_j^(a_j) + (random terms in x_(j+1)..x_m only)``
    with a_j = ``powers[j]`` >= 3.  The images are triangular, so the pure
    quotient is finite dimensional.  Every added term has word length >= 3,
    so the differential starts in word length 3 when some a_j is 3.
    """
    m = len(degrees)
    names = "abcdefgh"[:m]
    lines = [f"generator x{names[j]} {degrees[j]}" for j in range(m)]
    lines += [
        f"generator y{names[j]} {powers[j] * degrees[j] - 1}" for j in range(m)
    ]
    for j in range(m):
        target = powers[j] * degrees[j]
        later = list(range(j + 1, m))
        monomials = []
        for exps in itertools.product(
            *[range(target // degrees[i] + 1) for i in later]
        ):
            if sum(e * degrees[i] for e, i in zip(exps, later)) == target and sum(exps) >= 3:
                monomials.append(exps)
        terms = [f"x{names[j]}^{powers[j]}"]
        for exps in rng.sample(monomials, min(len(monomials), rng.randint(0, 2))):
            coeff = rng.choice((-2, -1, 1, 2, 3))
            factors = [f"x{names[i]}^{e}" for e, i in zip(exps, later) if e]
            terms.append(f"{coeff}*" + "*".join(factors))
        lines.append(f"d y{names[j]} = " + " + ".join(terms).replace("+ -", "- "))
    return "\n".join(lines) + "\n"


#: Shapes of the random zoo models: two even generators of degrees 2, 4 or 6
#: and powers with at least one 3.  Every seed draws one model of each shape
#: (only the differential's extra terms and their coefficients are random).
#: The cost of a report depends mostly on the shape, so fixing the shapes
#: keeps the work in a pass nearly the same for every seed.
ZOO_SHAPES = [
    (degrees, powers)
    for degrees in itertools.combinations_with_replacement((2, 4, 6), 2)
    for powers in itertools.product((3, 4, 5), repeat=2)
    if 3 in powers
]


def random_zoo_models(seed: int) -> List[str]:
    """One random model of each shape in ``ZOO_SHAPES``, drawn from
    ``seed``.  The engine confirms that each is elliptic, pure and k = 3,
    and each has a degree-N basis of at most ``ZOO_TOP_BASIS_CAP``
    monomials."""
    from sullivan.algebra import basis
    from sullivan.cli import parse_model_text
    from sullivan.cohomology import formal_dimension, is_elliptic
    from sullivan.differential import is_pure

    rng = random.Random(f"zoo:{seed}")
    texts: List[str] = []
    for degrees, powers in ZOO_SHAPES:
        text = random_pure_model(rng, degrees, powers)
        model = parse_model_text(text)
        top = len(basis(model.algebra, formal_dimension(model)))
        if (top > ZOO_TOP_BASIS_CAP or model.k != 3 or not is_pure(model)
                or not is_elliptic(model).is_elliptic):
            raise RuntimeError(f"not a small elliptic pure k = 3 model:\n{text}")
        texts.append(text)
    rng.shuffle(texts)
    return texts


# ---------------------------------------------------------------------------
# workloads


def _report(path: Path) -> List[str]:
    return ["report", str(path), "--format", "structured"]


#: Why each workload was chosen; the same text is in ``BENCHMARK.json``.
WHY = {
    "report_large": (
        "two 7-generator k = 3 models; dense Fraction elimination in the two "
        "copies of the e0 depth search dominates"
    ),
    "report_wide": (
        "pure k = 2 model with five even generators: ellipticity scan and "
        "cohomology kernels dominate, depth search is small, Bareiss runs"
    ),
    "report_zoo": (
        "15 fixtures plus seeded random small pure models: thousands of tiny "
        "eliminations and basis enumerations, so per-call overhead shows"
    ),
    "selftest_laws": (
        "seeded randomized law checks: Element products and derivation "
        "application do most of the work, linear algebra is a minority"
    ),
}


def build(name: str, seed: int, workdir: Path, reference=None) -> Workload:
    """The workload ``name`` with inputs drawn from ``seed``: the seed
    orders the ladder models within a pass, draws the random zoo models
    (written into ``workdir``) and is the selftest's seed."""
    if reference is None:
        reference = load_reference()
    rng = random.Random(f"{name}:{seed}")
    if name == "report_large":
        names = ["three_even", "n37_cp2"]
    elif name == "report_wide":
        names = ["five_even_k2"]
    elif name == "report_zoo":
        names = list(FIXTURES)
    elif name == "selftest_laws":
        argv = ["selftest", "--seed", str(seed), "--cases", str(SELFTEST_CASES),
                "--format", "structured"]
        op = Operation("selftest", argv, selftest_check(seed, SELFTEST_CASES))
        return Workload(name, WHY[name], [op])
    else:
        raise KeyError(name)
    rng.shuffle(names)
    ops = [
        Operation(f"report {n}", _report(MODELS / f"{n}.model"), reference_check(n, reference))
        for n in names
    ]
    files = [MODELS / f"{n}.model" for n in names]
    if name == "report_zoo":
        for i, text in enumerate(random_zoo_models(seed)):
            path = workdir / f"random_{i:02d}.model"
            path.write_text(text, encoding="utf-8")
            files.append(path)
            ops.append(Operation(f"report {path.name}", _report(path), random_model_check))
    return Workload(name, WHY[name], ops, [str(f) for f in files])
