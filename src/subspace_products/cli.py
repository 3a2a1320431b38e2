"""Command-line front end.

Loads subspace and matrix JSON files, runs the analyses, and emits
deterministic reports.  Exit codes: 0 on success, 1 on input or usage
errors, 2 when a check-style command ran cleanly but the verdict is
negative (no witness, curved, unknown closedness, no factorization).
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
from .core import Tolerances, _check_count, membership
from .errors import NoFactorization, SingularWitness, SubspaceProductsError
from .geometry import (
    curvature_measure,
    flatness_test,
    product_map_rank,
    sample_pair,
)
from .pencil import (
    closedness_certificate,
    craig_sakamoto_check,
    find_lft_witness,
    minrank,
)
from .serialization import (
    _to_pairs,
    dumps_canonical,
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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master random seed (default 0)")
    parser.add_argument("--trials", type=int, default=5, help="sampling trials (default 5)")
    parser.add_argument("--tol", type=float, default=None, help="relative rank tolerance override")
    parser.add_argument("--abs-floor", type=float, default=None, help="absolute floor override")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--output", default=None, help="write the report to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subspace-products",
        description="Analyze the set of products of two matrix subspaces.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="flatness report plus closedness certificate")
    p.add_argument("subspace1")
    p.add_argument("subspace2")
    p.add_argument("--budget", type=int, default=100, help="at most this many probe starts")
    _add_common(p)

    p = sub.add_parser("flatness", help="sampled flatness verdict (exit 2 when curved)")
    p.add_argument("subspace1")
    p.add_argument("subspace2")
    _add_common(p)

    p = sub.add_parser("curvature", help="curvature measure at a sampled base point")
    p.add_argument("subspace1")
    p.add_argument("subspace2")
    p.add_argument("--directions", type=int, default=20, help="direction pairs to sample")
    _add_common(p)

    p = sub.add_parser("minrank", help="minimum rank over nonzero members")
    p.add_argument("subspace")
    _add_common(p)

    p = sub.add_parser("cs", help="zero-product and determinant-identity tests (exit 2 when nonzero)")
    p.add_argument("matrix1")
    p.add_argument("matrix2")
    p.add_argument("--grid", type=int, default=9, help="grid points per axis on [-1,1]")
    _add_common(p)

    p = sub.add_parser("glft", help="generalized linear-fractional witness (exit 2 when none)")
    p.add_argument("matrix1")
    p.add_argument("matrix2")
    _add_common(p)

    p = sub.add_parser("factor", help="factor A = V1 V2 over an inverse-closed pair")
    p.add_argument("matrix")
    p.add_argument("subspace1")
    p.add_argument("subspace2")
    _add_common(p)

    p = sub.add_parser("solve", help="solve M(z)w = b in the bilinear model of a pair")
    p.add_argument("subspace1")
    p.add_argument("subspace2")
    p.add_argument("rhs", help="vector JSON file with linearization coordinates")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--model-out", default=None, help="also write the bilinear model file here")
    _add_common(p)

    p = sub.add_parser("catalog", help="emit a structured subspace JSON file")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--field", choices=("real", "complex"), default="complex")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--matrix", default=None, help="generator matrix JSON (krylov)")
    p.add_argument("--max-power", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("closedness", help="closedness certificate (exit 2 when unknown)")
    p.add_argument("subspace1")
    p.add_argument("subspace2")
    p.add_argument("--budget", type=int, default=100, help="at most this many probe starts")
    _add_common(p)

    p = sub.add_parser("bound", help="certificate degree bound")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built on its first call and never
    modified; :func:`build_parser` returns a fresh one to callers."""
    return build_parser()


def _tolerances(args) -> Tolerances:
    kwargs = {}
    if args.tol is not None:
        kwargs["rel_rank_tol"] = args.tol
    if args.abs_floor is not None:
        kwargs["abs_floor"] = args.abs_floor
    return Tolerances(**kwargs)


def _render_text(value, indent: str = "") -> list:
    lines = []
    if isinstance(value, dict):
        for key in sorted(value):
            inner = value[key]
            if isinstance(inner, (dict, list)):
                lines.append(f"{indent}{key}:")
                lines.extend(_render_text(inner, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {inner}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
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


def _subspace(path: str, tols: Tolerances):
    S = load_subspace(path, tols=tols)
    _log.debug("loaded %s: subspace n=%d field=%s dim=%d", path, S.n, S.field, S.dim)
    return S


def _array(load, path: str, **kwargs) -> np.ndarray:
    """A matrix or vector file read by ``load``."""
    A = load(path, **kwargs)
    _log.debug("loaded %s: shape %s dtype %s", path, A.shape, A.dtype)
    return A


def _emit(args, tols: Tolerances, result: dict) -> None:
    _write(args, {**_header(args, tols), "result": result})


def _write(args, obj: dict) -> None:
    """Render ``obj`` as ``--format`` asks and write it to ``--output`` or stdout."""
    if args.format == "json":
        text = dumps_canonical(obj)
    else:
        text = "\n".join(_render_text(obj)) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_analyze(args, tols) -> int:
    S1 = _subspace(args.subspace1, tols)
    S2 = _subspace(args.subspace2, tols)
    report = flatness_test(S1, S2, trials=args.trials, seed=args.seed)
    cert = closedness_certificate(S1, S2, budget=args.budget, seed=args.seed)
    _emit(args, tols, {
        "analysis": report.to_dict(),
        "closedness": {"status": cert.status, "details": cert.details},
        "dims": {"subspace1": S1.dim, "subspace2": S2.dim},
    })
    return 0


def _cmd_flatness(args, tols) -> int:
    S1 = _subspace(args.subspace1, tols)
    S2 = _subspace(args.subspace2, tols)
    report = flatness_test(S1, S2, trials=args.trials, seed=args.seed)
    _emit(args, tols, report.to_dict())
    return 0 if report.flat else _CHECK_FAILED


def _cmd_curvature(args, tols) -> int:
    _check_count("directions", args.directions)
    S1 = _subspace(args.subspace1, tols)
    S2 = _subspace(args.subspace2, tols)
    V1, V2 = sample_pair(S1, S2, args.seed)
    norms = []
    for t in range(args.directions):
        W1, W2 = sample_pair(S1, S2, args.seed + 1000 + 2 * t)
        W1 = W1 / np.linalg.norm(W1)
        W2 = W2 / np.linalg.norm(W2)
        sample = curvature_measure(S1, S2, V1, V2, W1, W2)
        norms.append(sample.q_norm)
    _emit(args, tols, {
        "base_seed": args.seed,
        "tangent_dim": product_map_rank(S1, S2, V1, V2),
        "q_norms": norms,
        "max_q_norm": max(norms),
        "min_q_norm": min(norms),
        "directions": args.directions,
    })
    return 0


def _cmd_minrank(args, tols) -> int:
    S = _subspace(args.subspace, tols)
    rep = minrank(S, seed=args.seed)
    _emit(args, tols, {
        "value": rep.value,
        "certified": rep.certified,
        "method": rep.method,
        "witness": matrix_to_obj(rep.witness),
    })
    return 0


def _cmd_cs(args, tols) -> int:
    X1 = _array(load_matrix, args.matrix1, field="real")
    X2 = _array(load_matrix, args.matrix2, field="real")
    zero_product, det_identity = craig_sakamoto_check(X1, X2, grid=args.grid, tols=tols)
    _emit(args, tols, {
        "zero_product": zero_product,
        "det_identity": det_identity,
        "grid": args.grid,
        "agree": zero_product == det_identity,
    })
    return 0 if zero_product else _CHECK_FAILED


def _cmd_glft(args, tols) -> int:
    X1 = _array(load_matrix, args.matrix1)
    X2 = _array(load_matrix, args.matrix2)
    witness = find_lft_witness(X1, X2, tols=tols)
    if witness is None:
        _emit(args, tols, {"witness": None})
        return _CHECK_FAILED
    _emit(args, tols, {
        "witness": {
            **{key: _to_pairs(getattr(witness, key)) for key in "abcd"},
            "residual": witness.residual,
        }
    })
    return 0


def _cmd_factor(args, tols) -> int:
    A = _array(load_matrix, args.matrix)
    S1 = _subspace(args.subspace1, tols)
    S2 = _subspace(args.subspace2, tols)
    try:
        V1, V2 = factor_via_inverse_closed(A, S1, S2, seed=args.seed)
    except (NoFactorization, SingularWitness) as exc:
        _emit(args, tols, {"factored": False, "reason": str(exc)})
        return _CHECK_FAILED
    residual = float(np.linalg.norm(A - V1 @ V2) / max(1.0, np.linalg.norm(A)))
    _emit(args, tols, {
        "factored": True,
        "V1": matrix_to_obj(V1),
        "V2": matrix_to_obj(V2),
        "relative_residual": residual,
        "memberships": {
            "V1": membership(S1, V1).residual,
            "V2": membership(S2, V2).residual,
        },
    })
    return 0


def _cmd_solve(args, tols) -> int:
    S1 = _subspace(args.subspace1, tols)
    S2 = _subspace(args.subspace2, tols)
    b = _array(load_vector, args.rhs)
    model = extract_bilinear(S1, S2)
    rep = solve_bilinear(
        model, b, restarts=args.restarts, max_iter=args.max_iter, seed=args.seed
    )
    # Written only after the solve, so a rejected input leaves no file.
    if args.model_out:
        save_obj(model_to_obj(model), args.model_out)
    _emit(args, tols, {
        "residual": rep.residual,
        "iterations": rep.iterations,
        "restarts_used": rep.restarts_used,
        "stop": rep.stop,
        "z": vector_to_obj(rep.z),
        "w": vector_to_obj(rep.w),
        "model": {"j": model.j, "kmj": model.kmj, "l": model.l},
    })
    return 0


def _cmd_catalog(args, tols) -> int:
    matrix = _array(load_matrix, args.matrix) if args.matrix else None
    spec = CatalogSpec(
        kind=args.kind, n=args.n, field=args.field,
        p=args.p, q=args.q, k=args.k, matrix=matrix, max_power=args.max_power,
    )
    S, flags = make_subspace(spec, tols=tols)
    # Emitted as a subspace file (loadable by the other commands directly),
    # with the report metadata carried in extra keys readers ignore.
    _write(args, {
        **subspace_to_obj(S), **_header(args, tols),
        "dim": S.dim, "flags": flags, "kind": args.kind,
    })
    return 0


def _cmd_closedness(args, tols) -> int:
    S1 = _subspace(args.subspace1, tols)
    S2 = _subspace(args.subspace2, tols)
    cert = closedness_certificate(S1, S2, budget=args.budget, seed=args.seed)
    _emit(args, tols, {"status": cert.status, "details": cert.details})
    return 0 if cert.status != "Unknown" else _CHECK_FAILED


def _cmd_bound(args, tols) -> int:
    value = nullstellensatz_degree_bound(args.D, args.n, args.k)
    _emit(args, tols, {"bound": value, "D": args.D, "n": args.n, "k": args.k})
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "flatness": _cmd_flatness,
    "curvature": _cmd_curvature,
    "minrank": _cmd_minrank,
    "cs": _cmd_cs,
    "glft": _cmd_glft,
    "factor": _cmd_factor,
    "solve": _cmd_solve,
    "catalog": _cmd_catalog,
    "closedness": _cmd_closedness,
    "bound": _cmd_bound,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    _log.debug("command %s", args.command)
    try:
        tols = _tolerances(args)
        return _COMMANDS[args.command](args, tols)
    except SubspaceProductsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
