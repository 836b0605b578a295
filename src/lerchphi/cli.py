"""Command-line front end: point evaluation, method comparison, identity
certification, and parameter sweeps.

Exit codes: 0 ok, 1 usage error, 2 domain error, 3 cross-method
disagreement beyond 10x tolerance.  Complex values are written "re,im" on
the command line, {"re": .., "im": ..} in JSON, and as paired columns in
CSV.  LERCH_TOL overrides the default tolerance of 1e-10.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import itertools
import math
import os
import random
import sys

# json and csv are imported by the output formats that write them: plain
# output, the default of eval and compare, loads neither

from . import engine, identities
from .errors import DomainError, LerchError
from .result import EvalResult

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_DEVIATION = 3

_SWEEP_FIELDS = (
    "z_re", "z_im", "n", "a_re", "a_im",
    "value_re", "value_im", "err", "method", "terms_or_nodes",
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract here is exit 1."""

    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a complex number as 're,im', got {text!r}"
    )


def _parse_range(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected a range as 'lo:hi:count', got {text!r}"
        )
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if count < 0:
        raise argparse.ArgumentTypeError("range count must be >= 0")
    if count == 0:
        return []
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _complex_json(z: complex):
    return {"re": z.real, "im": z.imag}


# ---------------------------------------------------------------------------
# result cells, shared by eval, compare and sweep

def _result_cells(res: EvalResult) -> list:
    """CSV cells value_re, value_im, err of a result."""
    return [_fmt(res.value.real), _fmt(res.value.imag), _fmt(res.err_estimate)]


def _result_json(res: EvalResult) -> dict:
    """JSON fields value, err_estimate, terms_or_nodes of a result."""
    return {
        "value": _complex_json(res.value),
        "err_estimate": res.err_estimate,
        "terms_or_nodes": res.terms_or_nodes,
    }


# ---------------------------------------------------------------------------
# eval

def _emit_eval(res: EvalResult, fmt: str, out) -> None:
    if fmt == "json":
        import json
        rec = {**_result_json(res), "method": res.method}
        out.write(json.dumps(rec, sort_keys=True) + "\n")
    elif fmt == "csv":
        import csv
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["value_re", "value_im", "err", "method",
                         "terms_or_nodes"])
        writer.writerow([*_result_cells(res), res.method, res.terms_or_nodes])
    else:
        out.write(f"value = {_fmt(res.value.real)} {_fmt(res.value.imag)}i\n")
        out.write(f"err_estimate = {_fmt(res.err_estimate)}\n")
        out.write(f"method = {res.method}\n")
        out.write(f"terms_or_nodes = {res.terms_or_nodes}\n")


def _cmd_eval(args) -> int:
    route = engine.phi if args.method == "auto" else engine.ROUTES[args.method]
    res = engine.degrade(route, args.z, args.n, args.a, args.tol)
    _emit_eval(res, args.format, sys.stdout)
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare

def _cmd_compare(args) -> int:
    rows = []
    for name, route in engine.ROUTES.items():
        try:
            res = engine.degrade(route, args.z, args.n, args.a, args.tol)
        except DomainError:
            continue
        rows.append((name, res))
    if not rows:
        print("domain error: no method admits this point", file=sys.stderr)
        return EXIT_DOMAIN

    certified = [
        r for _, r in rows
        if r.err_estimate <= 10 * args.tol * max(1.0, abs(r.value))
    ]
    deviation = max([0.0, *(abs(x.value - y.value)
                            for x, y in itertools.combinations(certified, 2))])
    scale = max([1.0, *(abs(r.value) for r in certified)])

    if args.format == "json":
        import json
        rec = {
            "methods": [{"method": name, **_result_json(res)}
                        for name, res in rows],
            "max_pairwise_deviation": deviation,
        }
        sys.stdout.write(json.dumps(rec, sort_keys=True) + "\n")
    elif args.format == "csv":
        import csv
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["method", "value_re", "value_im", "err",
                         "terms_or_nodes"])
        for name, res in rows:
            writer.writerow([name, *_result_cells(res), res.terms_or_nodes])
        writer.writerow(["max_pairwise_deviation", _fmt(deviation), "", "", ""])
    else:
        for name, res in rows:
            sys.stdout.write(
                f"{name:10s} value = {_fmt(res.value.real)} "
                f"{_fmt(res.value.imag)}i   err = {_fmt(res.err_estimate)}   "
                f"work = {res.terms_or_nodes}\n"
            )
        sys.stdout.write(f"max pairwise deviation = {_fmt(deviation)}\n")

    if len(certified) >= 2 and deviation > 10 * args.tol * scale:
        return EXIT_DEVIATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# check

def _sample_disc_z(rng) -> complex:
    r = rng.uniform(0.15, 0.85)
    theta = rng.choice((1, -1)) * rng.uniform(0.15, math.pi - 0.15)
    return r * cmath.exp(1j * theta)


def _sample_exterior_z(rng) -> complex:
    r = rng.uniform(1.3, 4.0)
    theta = rng.choice((1, -1)) * rng.uniform(0.2, math.pi - 0.2)
    return r * cmath.exp(1j * theta)


def _sample_shift(rng) -> complex:
    return complex(rng.uniform(0.08, 0.92), rng.uniform(-0.45, 0.45))


def _record(identity, point, residual, tol):
    return {
        "identity": identity,
        "point": point,
        "residual": residual,
        "tol": tol,
        "pass": bool(residual <= tol),
    }


def _point(z=None, n=None, a=None, m=None):
    point = {}
    if z is not None:
        point["z"] = _complex_json(z)
    if n is not None:
        point["n"] = n
    if a is not None:
        point["a"] = _complex_json(a)
    if m is not None:
        point["m"] = m
    return point


def _check_symmetry(rng, grid, tol):
    gate = tol if tol is not None else 1e-9
    for _ in range(grid):
        z = _sample_disc_z(rng)
        n = rng.randint(1, 5)
        a = _sample_shift(rng)
        res = identities.residual_symmetry(z, n, a, gate)
        yield _record("symmetry", _point(z=z, n=n, a=a), res, gate)


def _check_theorem1(rng, grid, tol):
    gate = tol if tol is not None else 1e-8
    pv_tol, series_tol = (1e-9, 1e-11) if tol is None else (tol, tol)
    count = 0
    while count < grid:
        z = _sample_disc_z(rng)
        phi_angle = cmath.phase(-cmath.log(z))
        # keep the shift away from the pole at 0: the representation scales
        # like |a|^-n and the gate is absolute
        a = complex(rng.uniform(0.5, 0.85), rng.uniform(-0.35, 0.35))
        if ((a - 1) * cmath.exp(1j * phi_angle)).real > -0.2:
            continue
        count += 1
        n = 1 + count % 3
        # a stalled route fails its record through its carried value
        v_pv = engine.degrade(engine.ROUTES["pv"], z, n, a, pv_tol).value
        v_series = engine.degrade(engine.ROUTES["series"], z, n, a,
                                  series_tol).value
        yield _record("theorem1", _point(z=z, n=n, a=a),
                      abs(v_pv - v_series), gate)


def _check_recurrences(rng, grid, tol):
    for i in range(grid):
        z = _sample_disc_z(rng) if i % 2 == 0 else _sample_exterior_z(rng)
        a = _sample_shift(rng)
        n_shift = rng.randint(1, 4)
        gate = tol if tol is not None else 1e-10
        res = identities.residual_shift(z, n_shift, a, gate)
        yield _record("shift", _point(z=z, n=n_shift, a=a), res, gate)
        n_ladder = rng.randint(2, 4)
        gate = tol if tol is not None else 1e-6
        down, up = identities.residual_s_ladder(z, n_ladder, a, gate)
        yield _record("s-ladder-down", _point(z=z, n=n_ladder, a=a), down, gate)
        yield _record("s-ladder-up", _point(z=z, n=n_ladder, a=a), up, gate)
        n_pde = rng.randint(1, 3)
        res = identities.residual_pde(z, n_pde, a, gate)
        yield _record("pde", _point(z=z, n=n_pde, a=a), res, gate)


def _check_reflections(rng, grid, tol):
    gate = tol if tol is not None else 1e-9
    # fixed spot value: zeta(2, 1/4) + zeta(2, 3/4) = 2 pi^2
    res = identities.residual_hurwitz_reflection(2, 0.25)
    yield _record("hurwitz-reflection", _point(n=2, a=0.25 + 0j), res,
                  tol if tol is not None else 1e-10)
    for _ in range(grid):
        n = rng.randint(2, 5)
        a = _sample_shift(rng)
        res = identities.residual_hurwitz_reflection(n, a)
        yield _record("hurwitz-reflection", _point(n=n, a=a), res, gate)
        m = rng.randint(1, 3)
        res = identities.residual_polygamma_reflection(m, a)
        yield _record("polygamma-reflection", _point(a=a, m=m), res, gate)


# The suites by name, in the order "all" runs them.
_SUITES = {
    "symmetry": _check_symmetry,
    "recurrences": _check_recurrences,
    "reflections": _check_reflections,
    "theorem1": _check_theorem1,
}


def _cmd_check(args) -> int:
    import json
    rng = random.Random(args.seed)
    names = _SUITES if args.suite == "all" else (args.suite,)
    all_pass = True
    for name in names:
        for rec in _SUITES[name](rng, args.grid, args.tol):
            sys.stdout.write(json.dumps(rec, sort_keys=True) + "\n")
            all_pass = all_pass and rec["pass"]
    return EXIT_OK if all_pass else EXIT_DEVIATION


# ---------------------------------------------------------------------------
# sweep

def _cmd_sweep(args) -> int:
    import csv
    import json
    jsonl = args.format == "jsonl"
    out = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    try:
        writer = csv.writer(out, lineterminator="\n")
        if not jsonl:
            writer.writerow(_SWEEP_FIELDS)
        for r, theta, are, aim in itertools.product(
            args.abs_z, args.arg_z, args.a_re, args.a_im
        ):
            z, a = r * cmath.exp(1j * theta), complex(are, aim)
            try:
                res = engine.degrade(engine.phi, z, args.n, a, args.tol)
            except LerchError as exc:
                error = f"error: {exc}"
                fields = (
                    {"value": None, "err": None, "method": error,
                     "terms_or_nodes": None}
                    if jsonl else ["", "", "", error, ""]
                )
            else:
                fields = (
                    {"value": _complex_json(res.value),
                     "err": res.err_estimate, "method": res.method,
                     "terms_or_nodes": res.terms_or_nodes}
                    if jsonl
                    else [*_result_cells(res), res.method, res.terms_or_nodes]
                )
            if jsonl:
                rec = {"z": _complex_json(z), "n": args.n,
                       "a": _complex_json(a), **fields}
                out.write(json.dumps(rec, sort_keys=True) + "\n")
            else:
                writer.writerow([_fmt(z.real), _fmt(z.imag), args.n,
                                 _fmt(are), _fmt(aim), *fields])
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser(default_tol: float) -> _Parser:
    parser = _Parser(prog="lerchphi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add_point_flags(p):
        p.add_argument("--z", type=_parse_complex, required=True,
                       metavar="RE,IM")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--a", type=_parse_complex, required=True,
                       metavar="RE,IM")
        p.add_argument("--tol", type=float, default=default_tol)

    p_eval = sub.add_parser("eval", help="evaluate Phi(z, n, a)")
    add_point_flags(p_eval)
    p_eval.add_argument(
        "--method", default="auto",
        choices=("auto", *engine.ROUTES),
    )
    p_eval.add_argument("--format", default="plain",
                        choices=["plain", "json", "csv"])
    p_eval.set_defaults(func=_cmd_eval)

    p_cmp = sub.add_parser("compare",
                           help="run every admissible method at one point")
    add_point_flags(p_cmp)
    p_cmp.add_argument("--format", default="plain",
                       choices=["plain", "json", "csv"])
    p_cmp.set_defaults(func=_cmd_compare)

    p_check = sub.add_parser("check", help="certify the identity web")
    p_check.add_argument("--suite", default="all", choices=("all", *_SUITES))
    p_check.add_argument("--grid", type=int, default=20)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--tol", type=float, default=None)
    p_check.set_defaults(func=_cmd_check)

    p_sweep = sub.add_parser("sweep", help="tabulate Phi over a grid")
    p_sweep.add_argument("--abs-z", type=_parse_range, required=True,
                         metavar="LO:HI:COUNT")
    p_sweep.add_argument("--arg-z", type=_parse_range, required=True,
                         metavar="LO:HI:COUNT")
    p_sweep.add_argument("--a-re", type=_parse_range, required=True,
                         metavar="LO:HI:COUNT")
    p_sweep.add_argument("--a-im", type=_parse_range, required=True,
                         metavar="LO:HI:COUNT")
    p_sweep.add_argument("--n", type=int, required=True)
    p_sweep.add_argument("--tol", type=float, default=default_tol)
    p_sweep.add_argument("--format", default="csv", choices=["csv", "jsonl"])
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def _default_tol() -> float:
    """LERCH_TOL, else 1e-10; a usage error where it is not a number."""
    text = os.environ.get("LERCH_TOL", "1e-10")
    try:
        return float(text)
    except ValueError:
        raise _UsageError(f"LERCH_TOL must be a number, got {text!r}") from None


def main(argv=None) -> int:
    try:
        args = _build_parser(_default_tol()).parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
