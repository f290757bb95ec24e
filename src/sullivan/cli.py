"""Command-line front end.

Model files are line-oriented: `generator <name> <degree>` declarations
followed by `d <name> = <polynomial>` lines ('#' starts a comment, omitted
d-lines mean zero).  Every command emits deterministic `key = value` pairs;
`--format human` adds a header and a timing line, `--format structured`
emits the bare pairs for golden-file comparison.

Exit codes: 0 success, 1 usage or input error, 2 mathematical precondition
failure (non-elliptic model, wrong k), 3 internal inconsistency (method
disagreement or a failed verification).

Dispatch: each command is one row of `COMMANDS`, naming the builder that
turns the parsed arguments and the model into pairs and an exit code, and
every argument but the shared `--format`.  `main` parses the model file
when the command takes one (the engine checks ellipticity itself), calls the
builder and emits its pairs; the exit code comes from the builder or from
the engine's exceptions.  The argparse parser is generated from the same
table, once per process, on the first call.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import __version__
from .algebra import _int_token, basis_keys, build_algebra, format_element, parse_element
from .cohomology import (
    check_duality,
    cohomology_basis,
    cohomology_dim,
    formal_dimension,
    is_elliptic,
    toomer_oracle,
    top_class,
)
from .differential import SullivanModel, build_differential, build_model, is_pure
from .errors import (
    InternalInconsistencyError,
    ModelError,
    ParseError,
    PreconditionError,
    clipped,
    quoted,
)
from .murillo import coefficient_matrix, murillo_fundamental_class
from .spectral import FilteredPair, SpectralRun, delta_cohomology, spectral_run
from . import selftest as selftest_mod


class ModelFile:
    __slots__ = ("model",)

    def __init__(self, model: SullivanModel):
        self.model = model


def parse_model_file(path: str) -> ModelFile:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            source = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelError(f"cannot read {path}: {exc}") from exc
    return ModelFile(parse_model_text(source))


def parse_model_text(source: str) -> SullivanModel:
    gen_specs: List[Tuple[str, int]] = []
    d_lines: List[Tuple[int, str, str, int]] = []  # line no, name, poly, col
    seen_d = False
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens = line.split()
        if tokens[0] == "generator":
            if seen_d:
                raise ParseError(
                    "generator declarations must precede d-lines", line=lineno
                )
            if len(tokens) != 3:
                raise ParseError(
                    "expected `generator <name> <degree>`", line=lineno
                )
            # a polynomial's digits after an optional '-'; int() also takes '+', '_'
            if not tokens[2].removeprefix("-").isdecimal():
                raise ParseError(
                    f"degree {quoted(tokens[2])} is not an integer", line=lineno
                )
            try:  # the degree is the last token of the stripped line
                degree = _int_token(tokens[2], len(line) - len(tokens[2]) + 1)
            except ParseError as exc:
                raise ParseError(exc.message, line=lineno, column=exc.column) from None
            gen_specs.append((tokens[1], degree))
        elif tokens[0] == "d":
            seen_d = True
            if "=" not in line:
                raise ParseError("expected `d <name> = <polynomial>`", line=lineno)
            head, _, poly = line.partition("=")
            head_tokens = head.split()
            if len(head_tokens) != 2:
                raise ParseError("expected `d <name> = <polynomial>`", line=lineno)
            d_lines.append((lineno, head_tokens[1], poly, line.index("=") + 2))
        else:
            raise ParseError(
                f"unrecognized statement {quoted(tokens[0])}", line=lineno
            )
    if not gen_specs:
        raise ParseError("model file declares no generators")
    algebra = build_algebra(gen_specs)
    images = {}
    for lineno, name, poly, col0 in d_lines:
        if not algebra.has_generator(name):
            raise ParseError(
                f"d-line for unknown generator {quoted(name)}", line=lineno
            )
        if name in images:
            raise ParseError(f"duplicate d-line for {quoted(name)}", line=lineno)
        try:
            images[name] = parse_element(poly, algebra)
        except ParseError as exc:
            col = (exc.column + col0) if exc.column is not None else None
            raise ParseError(exc.message, line=lineno, column=col) from None
    differential = build_differential(algebra, images)
    return build_model(algebra, differential)


# ---------------------------------------------------------------------------
# report assembly

Pairs = List[Tuple[str, object]]


def _fmt_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    return str(value)


def _emit(pairs: Pairs, header: str, fmt: str, started: float) -> None:
    out = sys.stdout
    if fmt == "human":
        print(f"== {header} ==", file=out)
    for key, value in pairs:
        print(f"{key} = {_fmt_value(value)}", file=out)
    if fmt == "human":
        print(f"elapsed_seconds = {time.perf_counter() - started:.3f}", file=out)
    out.flush()  # a closed pipe raises here, not in the interpreter's exit flush


def _info_pairs(path: str, model: SullivanModel) -> Pairs:
    alg = model.algebra
    return [
        ("model.path", path),
        ("model.generators", alg.ngens),
        ("model.dim_v_even", len(alg.even_indices)),
        ("model.dim_v_odd", len(alg.odd_indices)),
        ("model.k", model.k),
        ("model.formal_dimension", formal_dimension(model)),
        ("model.pure", is_pure(model)),
    ]


def _elliptic_pairs(model: SullivanModel, bound: Optional[int]) -> Pairs:
    res = is_elliptic(model, bound)
    pairs: Pairs = [
        ("elliptic.status", res.status),
        ("elliptic.formal_dimension", res.formal_dimension),
        ("elliptic.bound", res.bound),
        ("elliptic.window_width", res.window_width),
    ]
    if res.status == "elliptic":
        pairs.append(("elliptic.vanishing_from", res.window_start))
    else:
        shown = ",".join(str(d) for d in res.nonvanishing_degrees[:12])
        if len(res.nonvanishing_degrees) > 12:
            shown += ",..."
        pairs.append(("elliptic.nonvanishing_degrees", shown))
    return pairs


def _cohomology_pairs(
    model: SullivanModel, lo: int, hi: int, with_reps: bool
) -> Pairs:
    """The dimension of each degree's cohomology, from ranks alone unless
    its representatives are printed too."""
    pairs: Pairs = []
    for n in range(lo, hi + 1):
        if not with_reps:
            pairs.append((f"cohomology.dim.{n}", cohomology_dim(model, n)))
            continue
        reps = cohomology_basis(model, n)
        pairs.append((f"cohomology.dim.{n}", len(reps)))
        for i, rep in enumerate(reps):
            pairs.append((f"cohomology.rep.{n}.{i}", format_element(rep)))
    return pairs


def _top_class_pairs(model: SullivanModel) -> Pairs:
    degree, fundamental = top_class(model)
    return [
        ("top_class.degree", degree),
        ("top_class.representative", format_element(fundamental)),
    ]


def _murillo_pairs(model: SullivanModel) -> Pairs:
    # the class first: it checks ellipticity before the matrix checks purity
    omega = murillo_fundamental_class(model)
    alg = model.algebra
    pairs: Pairs = [
        ("murillo.rows", len(alg.odd_indices)),
        ("murillo.cols", len(alg.even_indices)),
    ]
    for j, row in enumerate(coefficient_matrix(model), start=1):
        for i, entry in enumerate(row, start=1):
            pairs.append((f"murillo.entry.{j}.{i}", format_element(entry)))
    pairs.append(("murillo.class", format_element(omega)))
    return pairs


def _delta_pairs(degree: int, classes: List[FilteredPair], with_reps: bool) -> Pairs:
    by_p: Dict[int, int] = {}
    for cls in classes:
        by_p[cls.p] = by_p.get(cls.p, 0) + 1
    pairs: Pairs = [
        ("delta.degree", degree),
        ("delta.dim_total", len(classes)),
    ]
    for p in sorted(by_p):
        pairs.append((f"delta.dim.p{p}", by_p[p]))
    if with_reps:
        for i, cls in enumerate(classes):
            pairs.append((f"delta.class.{i}.p", cls.p))
            pairs.append((f"delta.class.{i}.u", format_element(cls.u)))
            pairs.append((f"delta.class.{i}.v", format_element(cls.v)))
    return pairs


def _toomer_pairs(
    model: SullivanModel, method: str, run: Optional[SpectralRun] = None
) -> Pairs:
    """A spectral ``run`` already computed for the model is used instead of
    a new one."""
    pairs: Pairs = []
    oracle = spectral = None
    if method in ("oracle", "both"):
        oracle = toomer_oracle(model)
        pairs.append(("toomer.oracle.e0", oracle.e0))
        pairs.append(
            ("toomer.oracle.representative", format_element(oracle.representative))
        )
    if method in ("spectral", "both"):
        spectral = (run or spectral_run(model)).result
        pairs.append(("toomer.spectral.e0", spectral.e0))
        pairs.append(
            ("toomer.spectral.representative", format_element(spectral.representative))
        )
        pairs.append(("toomer.spectral.witness.p", spectral.witness[0]))
        pairs.append(("toomer.spectral.witness.parity", spectral.witness[1]))
    if method == "both":
        pairs.append(("toomer.agree", oracle.e0 == spectral.e0))
    return pairs


def _spectral_trace_pairs(run: SpectralRun) -> Pairs:
    pairs: Pairs = []
    for i, trace in enumerate(run.outcomes):
        prefix = f"delta.class.{i}"
        pairs.append((f"{prefix}.p", trace.p))
        pairs.append((f"{prefix}.depth", trace.start.min_wordlength()))
        pairs.append((f"{prefix}.lift.outcome", trace.outcome))
        pairs.append((f"{prefix}.lift.iterations", trace.iterations))
        pairs.append((f"{prefix}.lift.t_bound", trace.t_bound))
        final = format_element(trace.final) if trace.final is not None else None
        pairs.append((f"{prefix}.lift.final", final))
    return pairs


# ---------------------------------------------------------------------------
# commands


def _top_degree(args) -> int:
    hi = args.degree if getattr(args, "to", None) is None else args.to
    if args.degree < 0 or hi < args.degree:
        raise PreconditionError("degree range must satisfy 0 <= degree <= to")
    return hi


def _cohomology(args, model: SullivanModel) -> Tuple[Pairs, int]:
    hi = _top_degree(args)
    # H^hi needs the degree-(hi + 1) basis: building it first stops a range
    # over MAX_DEGREE or MAX_BASIS before any degree is solved
    basis_keys(model.algebra, hi + 1)
    return _cohomology_pairs(model, args.degree, hi, args.format == "human"), 0


def _delta_cohomology(args, model: SullivanModel) -> Tuple[Pairs, int]:
    n = _top_degree(args)
    return _delta_pairs(n, delta_cohomology(model, n), True), 0


def _report(args, model: SullivanModel) -> Tuple[Pairs, int]:
    pairs: Pairs = [("command", "report"), ("engine.version", __version__)]
    pairs += _info_pairs(args.model, model)
    pairs += _elliptic_pairs(model, args.max_degree)
    if is_elliptic(model, args.max_degree).is_elliptic:
        n = formal_dimension(model)
        # the top class first: the ranks at N - 1 and N are then read off
        # the factorizations it builds, which the depth searches reuse
        top = _top_class_pairs(model)
        dims = _cohomology_pairs(model, 0, n, with_reps=False)
        check_duality([dim for _, dim in dims])
        pairs += dims + top
        if is_pure(model):
            pairs += _murillo_pairs(model)
        if model.k == 3:
            run = spectral_run(model)
            pairs += _toomer_pairs(model, "both", run)
            pairs += _delta_pairs(n, run.classes, False)
            pairs += _spectral_trace_pairs(run)
        else:
            pairs += _toomer_pairs(model, "oracle")
    return pairs, 0


def _selftest(args, model) -> Tuple[Pairs, int]:
    pairs: Pairs = [("selftest.seed", args.seed)]
    code = 0
    for res in selftest_mod.run_all(seed=args.seed, cases=args.cases):
        pairs.append((f"selftest.{res.name}.cases", res.cases))
        pairs.append((f"selftest.{res.name}.ok", res.ok))
        if not res.ok:
            code = 3
            pairs.append((f"selftest.{res.name}.detail", res.detail))
    return pairs, code


def _int(text: str) -> int:
    """A ``--degree``, ``--to`` or ``--seed`` value: an integer.  argparse's
    own ``type=int`` would echo a rejected value whole."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {quoted(text)}") from None


def _nonnegative_int(text: str) -> int:
    """A ``--max-degree`` or ``--cases`` value: a nonnegative integer."""
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {clipped(value)}")
    return value


_MODEL = ("model", dict(help="path to a model file"))
_MAX_DEGREE = (
    "--max-degree", dict(type=_nonnegative_int, help="override the ellipticity scan bound")
)
_DEGREE = ("--degree", dict(type=_int, required=True))

#: name -> (builder(args, model) -> (pairs, exit code), arguments as (flag
#: or name, add_argument keywords)); model is None for a command without one
COMMANDS: Dict[str, Tuple[Callable, tuple]] = {
    "info": (lambda a, m: (_info_pairs(a.model, m), 0), (_MODEL,)),
    "validate": (lambda a, m: ([("validate.ok", True), ("model.k", m.k)], 0), (_MODEL,)),
    "cohomology": (
        _cohomology, (_MODEL, _DEGREE, ("--to", dict(type=_int, default=None)))
    ),
    "elliptic": (lambda a, m: (_elliptic_pairs(m, a.max_degree), 0), (_MODEL, _MAX_DEGREE)),
    "top-class": (lambda a, m: (_top_class_pairs(m), 0), (_MODEL,)),
    "murillo": (lambda a, m: (_murillo_pairs(m), 0), (_MODEL,)),
    "delta-cohomology": (_delta_cohomology, (_MODEL, _DEGREE)),
    "toomer": (
        lambda a, m: (_toomer_pairs(m, a.method), 0),
        (_MODEL, ("--method", dict(choices=("oracle", "spectral", "both"), default="both"))),
    ),
    "report": (_report, (_MODEL, _MAX_DEGREE)),
    "selftest": (
        _selftest,
        (
            ("--seed", dict(type=_int, default=0)),
            ("--cases", dict(type=_nonnegative_int, default=200)),
        ),
    ),
}


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this front end reserves
    2 for mathematical preconditions, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def _parser() -> _Parser:
    """The parser, generated from `COMMANDS` on first use."""
    # --help shows the user-facing part of the module docstring
    parser = _Parser(prog="sullivan", description=__doc__.partition("\nDispatch")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, arguments) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--format", choices=("human", "structured"), default="human")
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    build, _ = COMMANDS[args.command]
    header, model = args.command, None
    try:
        if "model" in args:
            header += f": {args.model}"
            model = parse_model_file(args.model).model
        pairs, code = build(args, model)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"error: internal inconsistency: {exc}", file=sys.stderr)
        return 3
    try:
        _emit(pairs, header, args.format, started)
    except BrokenPipeError:  # with stdout on devnull the exit flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
