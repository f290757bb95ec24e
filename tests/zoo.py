"""Where the tests get their models: the model files, the models of
``sullivan.models``, one seeded generator of random pure models, and
products of models.  Not a test module."""

from __future__ import annotations

import itertools
import random
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple

from sullivan.algebra import Element, basis, build_algebra
from sullivan.cli import parse_model_file, parse_model_text
from sullivan.cohomology import formal_dimension
from sullivan.differential import SullivanModel, build_differential, build_model
from sullivan.models import ALL_MODELS, projective_plane, tower_one_even

TESTS = Path(__file__).resolve().parent
BENCH, FIXTURES, LARGE = TESTS.parent / "bench/models", TESTS / "fixtures", TESTS / "large"

Named = List[Tuple[str, SullivanModel]]


def model_files(*folders: Path, parseable: bool = True) -> List[Path]:
    """The ``.model`` files of ``folders`` (default: all three), sorted within
    each folder; with ``parseable``, all but ``bad_linear``, whose d is not
    minimal."""
    return [
        path
        for folder in folders or (BENCH, FIXTURES, LARGE)
        for path in sorted(folder.glob("*.model"))
        if not (parseable and path.stem == "bad_linear")
    ]


def random_pure_model(
    rng: random.Random,
    degrees: Sequence[int],
    powers: Sequence[int] = (),
    targets: Sequence[int] = (),
    min_length: int = 2,
) -> SullivanModel:
    """A random pure model with even generators x_i of ``degrees``.

    For each lead power a_j of ``powers`` an odd y_j with d y_j = x_j^(a_j)
    plus 0 to 2 random terms in x_(j+1), x_(j+2), ...: triangular images, so
    the model is elliptic.  Then for each t of ``targets`` an odd generator
    of degree t - 1 whose image is 0 to 3 random terms in all the x_i.  Each
    random term has word length >= ``min_length`` and a coefficient in
    -2, -1, 1, 2, 3.
    """
    leads = [a * degree for a, degree in zip(powers, degrees)]
    alg = build_algebra(
        [(f"x{i}", degree) for i, degree in enumerate(degrees)]
        + [(f"y{j}", t - 1) for j, t in enumerate(leads + list(targets))]
    )

    def terms(target: int, among: Sequence[int], count: int) -> Element:
        monos = []
        for exps in itertools.product(*[range(target // degrees[i] + 1) for i in among]):
            mono = [0] * alg.ngens
            for i, e in zip(among, exps):
                mono[i] = e
            if alg.monomial_degree(mono) == target and sum(mono) >= min_length:
                monos.append(mono)
        picked = rng.sample(monos, min(len(monos), count))
        coefficients = (-2, -1, 1, 2, 3)
        return sum(
            (Element.from_monomial(alg, m, rng.choice(coefficients)) for m in picked),
            alg.zero(),
        )

    images = {}
    for j, a in enumerate(powers):
        lead = Element.from_monomial(alg, [a * (i == j) for i in range(alg.ngens)])
        later = range(j + 1, len(degrees))
        images[f"y{j}"] = lead + terms(leads[j], later, rng.randint(0, 2))
    for j, t in enumerate(targets, len(powers)):
        images[f"y{j}"] = terms(t, range(len(degrees)), rng.randint(0, 3))
    return build_model(alg, build_differential(alg, images))


def random_k3_models(seed: int, count: int, max_top_basis: int = 120) -> Named:
    """``count`` random pure k = 3 models, named ``random 0``, ``random 1``, ...:
    two or three even generators of degree 2 or 4 in ascending order, lead
    powers 3 and then 3 or 4, for half of them one more odd generator of
    target 6, 8 or 10, and terms of word length >= 3.  A draw is kept when
    its degree-N basis has at most ``max_top_basis`` monomials."""
    # the depth-search tests' stream, whose draws their count floors were set on
    rng = random.Random(f"{seed}:depth_search")
    out: Named = []
    while len(out) < count:
        m = rng.choice((2, 3))
        degrees = sorted(rng.choice((2, 4)) for _ in range(m))
        powers = [3] + [rng.choice((3, 4)) for _ in range(m - 1)]
        targets = [rng.choice((6, 8, 10))] if rng.random() < 0.5 else []
        model = random_pure_model(rng, degrees, powers, targets, min_length=3)
        if len(basis(model.algebra, formal_dimension(model))) <= max_top_basis:
            out.append((f"random {len(out)}", model))
    return out


def random_nonpure_model(rng: random.Random) -> SullivanModel:
    """A random elliptic k = 3 model that is not pure, of the shape of
    ``nonpure_n23``, its generators declared in a random order: x2; y3 with
    d y3 = 0; u of degree 2a - 1 with d u = x2^a; x of degree e = 2a + 2 with
    d x = c x2^a y3; and z of degree pe - 1 with d z the cocycle of x^p plus
    0 to 2 random multiples of those of the other x2^m x^j of its degree and
    word length >= 3, the cocycle of x2^m x^j being x2^m x^j + jc x2^m
    x^(j-1) y3 u."""
    a = rng.choice((3, 4))
    p, c, e = 3 if a == 4 else rng.choice((3, 4)), rng.choice((1, 2, 3)), 2 * a + 2
    specs = [("x2", 2), ("y3", 3), ("u", 2 * a - 1), ("x", e), ("z", p * e - 1)]
    rng.shuffle(specs)
    others = [((p - j) * e // 2, j) for j in range(p) if (p - j) * e // 2 + j >= 3]
    picked = [(1, 0, p)] + [
        (rng.choice((-2, -1, 1, 2, 3)), m, j)
        for m, j in rng.sample(others, rng.randint(0, 2))
    ]
    terms = [f"{lam}*x2^{m}*x^{j}" for lam, m, j in picked]
    terms += [f"{lam * j * c}*x2^{m}*x^{j - 1}*y3*u" for lam, m, j in picked if j]
    text = "".join(f"generator {name} {degree}\n" for name, degree in specs)
    text += f"d u = x2^{a}\nd x = {c}*x2^{a}*y3\nd z = " + " + ".join(terms)
    return parse_model_text(text.replace("+ -", "- ") + "\n")


def models(files: Iterable[Path] = (), randoms: int = 0) -> Named:
    """Fresh (name, model) pairs: every model of ``ALL_MODELS``, the model of
    each of ``files`` under its stem, and ``random_k3_models(0, randoms)``."""
    out = [(name, build()) for name, build in ALL_MODELS]
    out += [(path.stem, parse_model_file(str(path)).model) for path in files]
    return out + random_k3_models(0, randoms)


def assorted() -> Named:
    """Fresh models of every kind: ``models`` of the fixture files with four
    random k = 3 models, and the product of CP^2 and ``tower_one_even``."""
    pair = product(projective_plane(), tower_one_even())
    return models(model_files(FIXTURES), randoms=4) + [("product", pair)]


#: the text of a model file of (x2, y7; d y7 = x2^4): elliptic with k = 4, N = 6
K4_TEXT = "generator x2 2\ngenerator y7 7\nd y7 = x2^4\n"


def k4_model() -> SullivanModel:
    """The model of ``K4_TEXT``."""
    return parse_model_text(K4_TEXT)


def product(*factors: SullivanModel) -> SullivanModel:
    """The models side by side: generator g of factor i is named ``g_i``,
    and each image is shifted into its factor's place."""
    alg = build_algebra(
        (f"{g.name}_{i}", g.degree)
        for i, model in enumerate(factors)
        for g in model.algebra.generators
    )
    images, before = {}, 0
    for i, model in enumerate(factors):
        after = alg.ngens - before - model.algebra.ngens
        for g in model.algebra.generators:
            images[f"{g.name}_{i}"] = Element(alg, {
                (0,) * before + mono + (0,) * after: c
                for mono, c in model.differential.image_of(g.name).terms.items()
            })
        before += model.algebra.ngens
    return build_model(alg, build_differential(alg, images))
