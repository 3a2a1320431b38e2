"""Command-line front end.

Loads subspace and matrix JSON files, runs the analyses, and emits
deterministic reports.  Exit codes: 0 on success, 1 on input or usage
errors, 2 when a check-style command ran cleanly but the verdict is
negative (no witness, curved, unknown closedness, no factorization).

Every command is one row of :data:`_COMMANDS`; :func:`build_parser` and
:func:`main` read that table, and a command's handler only computes.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys

import numpy as np

from . import __version__
from .bilinear import (
    extract_bilinear,
    factor_via_inverse_closed,
    nullstellensatz_degree_bound,
    solve_bilinear,
)
from .catalog import KINDS, CatalogSpec, make_subspace
from .core import Tolerances, _check_int, _member_residual, _norm, random_unit_element
from .errors import NoFactorization, NotMember, SingularWitness, SubspaceProductsError
from .geometry import _normal_part, flatness_test, sample_pair, tangent_space
from .pencil import (
    closedness_certificate,
    craig_sakamoto_check,
    find_lft_witness,
    minrank,
)
from .serialization import (
    _document,
    load_matrix,
    load_subspace,
    load_vector,
    matrix_to_obj,
    model_to_obj,
    save_obj,
    subspace_to_obj,
    vector_to_obj,
)

_CHECK_FAILED = 2
_log = logging.getLogger("subspace_products")


def _tolerances(args) -> Tolerances:
    kwargs = {}
    if args.tol is not None:
        kwargs["rel_rank_tol"] = args.tol
    if args.abs_floor is not None:
        kwargs["abs_floor"] = args.abs_floor
    return Tolerances(**kwargs)


def _render_text(value, indent: str = "") -> list:
    lines = []
    if isinstance(value, np.ndarray):
        # Rendered as the [re, im] pair lists that the JSON report holds.
        A = value.astype(np.complex128)
        value = np.stack([A.real, A.imag], -1).tolist()
    if isinstance(value, dict):
        for key in sorted(value):
            inner = value[key]
            if isinstance(inner, (dict, list, np.ndarray)):
                lines.append(f"{indent}{key}:")
                lines.extend(_render_text(inner, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {inner}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list, np.ndarray)):
                lines.extend(_render_text(item, indent + "  "))
            else:
                lines.append(f"{indent}- {item}")
    else:
        lines.append(f"{indent}{value}")
    return lines


def _header(args, tols: Tolerances) -> dict:
    """The keys every report carries: tool, version and run configuration."""
    return {
        "tool": "subspace-products",
        "version": __version__,
        "command": args.command,
        "seed": args.seed,
        "trials": args.trials,
        "tolerances": {"rel_rank_tol": tols.rel_rank_tol, "abs_floor": tols.abs_floor},
    }


def _write(args, obj: dict) -> None:
    """Render ``obj`` as ``--format`` asks and write it to ``--output`` or
    stdout.  JSON comes as the pieces of the streaming writer of
    :func:`save_obj`, never joined into one string."""
    pieces = _document(obj) if args.format == "json" else ["\n".join(_render_text(obj)) + "\n"]
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


# Readers of input files: (path, tolerances) -> the loaded object.  They
# call the loaders through this module's names at call time, so a loader
# rebound here (a wrapper, a test double) is the one that runs.
def _subspace(path: str, tols: Tolerances):
    S = load_subspace(path, tols=tols)
    _log.debug("loaded %s: subspace n=%d field=%s dim=%d", path, S.n, S.field, S.dim)
    return S


def _logged(path: str, A: np.ndarray) -> np.ndarray:
    _log.debug("loaded %s: shape %s dtype %s", path, A.shape, A.dtype)
    return A


def _matrix(path: str, tols: Tolerances, field=None) -> np.ndarray:
    return _logged(path, load_matrix(path, field=field))


def _vector(path: str, tols: Tolerances) -> np.ndarray:
    return _logged(path, load_vector(path))


# Handlers: (args, tolerances, *inputs) -> (report result, verdict), where a
# false verdict exits 2.


def _analyze(args, tols, S1, S2):
    report = flatness_test(S1, S2, trials=args.trials, seed=args.seed)
    cert = closedness_certificate(S1, S2, budget=args.budget, seed=args.seed)
    return {
        "analysis": report.to_dict(),
        "closedness": {"status": cert.status, "details": cert.details},
        "dims": {"subspace1": S1.dim, "subspace2": S2.dim},
    }, True


def _flatness(args, tols, S1, S2):
    report = flatness_test(S1, S2, trials=args.trials, seed=args.seed)
    return report.to_dict(), report.flat


def _curvature(args, tols, S1, S2):
    # Every direction shares the base point, so one tangent space serves
    # them all; the seeded directions are members by construction.
    V1, V2 = sample_pair(S1, S2, args.seed)
    T = tangent_space(S1, S2, V1, V2)
    norms = []
    for t in range(args.directions):
        s = args.seed + 1000 + 2 * t
        W1, W2 = random_unit_element(S1, s), random_unit_element(S2, s + 1)
        norms.append(_norm(_normal_part(T, W1, W2, W1, W2)))
    return {
        "base_seed": args.seed,
        "tangent_dim": T.dim,
        "q_norms": norms,
        "max_q_norm": max(norms),
        "min_q_norm": min(norms),
        "directions": args.directions,
    }, True


def _minrank(args, tols, S):
    rep = minrank(S, seed=args.seed)
    return {
        "value": rep.value,
        "certified": rep.certified,
        "method": rep.method,
        "witness": matrix_to_obj(rep.witness),
    }, True


def _cs(args, tols, X1, X2):
    zero_product, det_identity = craig_sakamoto_check(X1, X2, grid=args.grid, tols=tols)
    return {
        "zero_product": zero_product,
        "det_identity": det_identity,
        "grid": args.grid,
        "agree": zero_product == det_identity,
    }, zero_product


def _glft(args, tols, X1, X2):
    witness = find_lft_witness(X1, X2, tols=tols)
    if witness is None:
        return {"witness": None}, False
    return {
        "witness": {
            **{key: np.asarray(getattr(witness, key)) for key in "abcd"},
            "residual": witness.residual,
        }
    }, True


def _factor(args, tols, A, S1, S2):
    try:
        V1, V2 = factor_via_inverse_closed(A, S1, S2, seed=args.seed)
        # One membership test per factor, each a finite matrix of side n.
        residuals = {"V1": _member_residual(S1, V1, "V1"), "V2": _member_residual(S2, V2, "V2")}
    except (NoFactorization, NotMember, SingularWitness) as exc:
        return {"factored": False, "reason": str(exc)}, False
    return {
        "factored": True,
        "V1": matrix_to_obj(V1),
        "V2": matrix_to_obj(V2),
        "relative_residual": _norm(A - V1 @ V2) / max(1.0, _norm(A)),
        "memberships": residuals,
    }, True


def _solve(args, tols, S1, S2, b):
    model = extract_bilinear(S1, S2)
    rep = solve_bilinear(
        model, b, restarts=args.restarts, max_iter=args.max_iter, seed=args.seed
    )
    # Written only after the solve, so a rejected input leaves no file.
    if args.model_out:
        save_obj(model_to_obj(model), args.model_out)
    return {
        "residual": rep.residual,
        "iterations": rep.iterations,
        "restarts_used": rep.restarts_used,
        "stop": rep.stop,
        "z": vector_to_obj(rep.z),
        "w": vector_to_obj(rep.w),
        "model": {"j": model.j, "kmj": model.kmj, "l": model.l},
    }, True


def _catalog(args, tols):
    matrix = _matrix(args.matrix, tols) if args.matrix else None
    spec = CatalogSpec(
        kind=args.kind, n=args.n, field=args.field,
        p=args.p, q=args.q, k=args.k, matrix=matrix, max_power=args.max_power,
    )
    S, flags = make_subspace(spec, tols=tols)
    # Emitted as a subspace file (loadable by the other commands directly),
    # with the report metadata carried in extra keys readers ignore; the
    # None result tells main the output is already written.
    _write(args, {
        **subspace_to_obj(S), **_header(args, tols),
        "dim": S.dim, "flags": flags, "kind": args.kind,
    })
    return None, True


def _closedness(args, tols, S1, S2):
    cert = closedness_certificate(S1, S2, budget=args.budget, seed=args.seed)
    return {"status": cert.status, "details": cert.details}, cert.status != "Unknown"


def _bound(args, tols):
    value = nullstellensatz_degree_bound(args.D, args.n, args.k)
    return {"bound": value, "D": args.D, "n": args.n, "k": args.k}, True


# Options every command takes, after its own: (flag, add_argument keywords).
_COMMON = (
    ("--seed", dict(type=int, default=0, help="master random seed (default 0)")),
    ("--trials", dict(type=int, default=5, help="sampling trials (default 5)")),
    ("--tol", dict(type=float, default=None, help="relative rank tolerance override")),
    ("--abs-floor", dict(type=float, default=None, help="absolute floor override")),
    ("--format", dict(choices=("json", "text"), default="json")),
    ("--output", dict(default=None, help="write the report to this path instead of stdout")),
)
_PAIR = (("subspace1", _subspace), ("subspace2", _subspace))
_BUDGET = (("--budget", dict(type=int, default=100, help="at most this many probe starts")),)
_INT = dict(type=int, default=None)
_REQUIRED_INT = dict(type=int, required=True)

# One row per command, in --help order: handler, help, positional inputs as
# (name, reader[, help]) read in this order, and the command's own options.
_COMMANDS = {
    "analyze": (_analyze, "flatness report plus closedness certificate", _PAIR, _BUDGET),
    "flatness": (_flatness, "sampled flatness verdict (exit 2 when curved)", _PAIR, ()),
    "curvature": (_curvature, "curvature measure at a sampled base point", _PAIR, (
        ("--directions", dict(type=int, default=20, help="direction pairs to sample")),)),
    "minrank": (_minrank, "minimum rank over nonzero members", (("subspace", _subspace),), ()),
    "cs": (_cs, "zero-product and determinant-identity tests (exit 2 when nonzero)", (
        ("matrix1", functools.partial(_matrix, field="real")),
        ("matrix2", functools.partial(_matrix, field="real")),
    ), (("--grid", dict(type=int, default=9, help="grid points per axis on [-1,1]")),)),
    "glft": (_glft, "generalized linear-fractional witness (exit 2 when none)",
             (("matrix1", _matrix), ("matrix2", _matrix)), ()),
    "factor": (_factor, "factor A = V1 V2 over an inverse-closed pair",
               (("matrix", _matrix), *_PAIR), ()),
    "solve": (_solve, "solve M(z)w = b in the bilinear model of a pair", (
        *_PAIR, ("rhs", _vector, "vector JSON file with linearization coordinates"),
    ), (
        ("--restarts", dict(type=int, default=20)),
        ("--max-iter", dict(type=int, default=200)),
        ("--model-out", dict(default=None, help="also write the bilinear model file here")),
    )),
    "catalog": (_catalog, "emit a structured subspace JSON file", (), (
        ("--kind", dict(required=True, choices=KINDS)),
        ("--n", _REQUIRED_INT),
        ("--field", dict(choices=("real", "complex"), default="complex")),
        ("--p", _INT), ("--q", _INT), ("--k", _INT),
        ("--matrix", dict(default=None, help="generator matrix JSON (krylov)")),
        ("--max-power", _INT),
    )),
    "closedness": (_closedness, "closedness certificate (exit 2 when unknown)", _PAIR, _BUDGET),
    "bound": (_bound, "certificate degree bound", (),
              (("--D", _REQUIRED_INT), ("--n", _REQUIRED_INT), ("--k", _REQUIRED_INT))),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subspace-products",
        description="Analyze the set of products of two matrix subspaces.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, inputs, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name, _read, *input_help in inputs:
            p.add_argument(name, help=input_help[0] if input_help else None)
        for flag, keywords in options + _COMMON:
            p.add_argument(flag, **keywords)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built on its first call and never
    modified; :func:`build_parser` returns a fresh one to callers."""
    return build_parser()


# Count options, each of at least 1, that some commands take.
_COUNTS = ("directions", "budget", "grid", "restarts", "max_iter")


def _check_options(args) -> None:
    """Check ``--seed`` and ``--trials``, which every report header
    carries, then each count option the command takes, so that a bad value
    is rejected before any input is read."""
    _check_int("seed", args.seed, 0)
    _check_int("trials", args.trials, 1)
    for name in _COUNTS:
        if hasattr(args, name):
            _check_int(name, getattr(args, name), 1)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    _log.debug("command %s", args.command)
    handler, _, inputs, _ = _COMMANDS[args.command]
    try:
        _check_options(args)
        tols = _tolerances(args)
        loaded = [read(getattr(args, name), tols) for name, read, *_ in inputs]
        result, verdict = handler(args, tols, *loaded)
        if result is not None:
            _write(args, {**_header(args, tols), "result": result})
    except SubspaceProductsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if verdict else _CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
