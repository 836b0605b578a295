"""Seeded inputs and the operation of each benchmark workload.

plane and compare draw rotated Halton points: the seed shifts every
coordinate of a fixed low-discrepancy sequence (a Cranley-Patterson
rotation), so every seed covers the bands that set the cost of an evaluation
(|z|, n, the shift, the side of the circle) in the same proportions; plain
random draws move throughput by tens of percent from one seed to the next.
near_circle, with few and costly points, is a stratified grid.

An operation returns a tuple that is equal for equal outputs, so a repeated
input can be checked against its first output, and a failure kind, the
reason the operation counts as failed for ``fail_share`` or None.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

from lerchphi import cli, engine
from lerchphi.errors import DomainError, LerchError, ToleranceNotMet

TOL = 1e-10

_PRIMES = (2, 3, 5, 7, 11, 13, 17)


def _radical_inverse(i: int, base: int) -> float:
    inv, f = 0.0, 1.0 / base
    while i:
        i, digit = divmod(i, base)
        inv += digit * f
        f /= base
    return inv


def halton(rng: random.Random, dims: int):
    """Endless rotated Halton points in [0, 1)^dims."""
    shifts = [rng.random() for _ in range(dims)]
    i = 0
    while True:
        i += 1
        yield [(_radical_inverse(i, b) + s) % 1.0
               for b, s in zip(_PRIMES, shifts)]


def _certified(res) -> bool:
    return (not res.method.endswith("(degraded)")
            and res.err_estimate <= TOL * max(1.0, abs(res.value)))


def _result_key(res):
    return (res.value, res.err_estimate, res.method, res.terms_or_nodes)


# ---------------------------------------------------------------------------
# plane and near_circle: one engine.phi call per operation

def plane_points(rng: random.Random, count: int):
    """|z| uniform in [0.05, 0.95] or [1.05, 20] (half each), n = 1..6,
    complex a with Re a in [-2, 3]; a quarter of the exterior points get an
    integer shift a = 1..6."""
    points = []
    for u in halton(rng, 7):
        inside = u[0] < 0.5
        r = 0.05 + 0.9 * u[1] if inside else 1.05 + 18.95 * u[1]
        z = r * cmath.exp(1j * math.pi * (2.0 * u[2] - 1.0))
        n = 1 + int(6 * u[3])
        a = complex(-2.0 + 5.0 * u[4], 2.0 * u[5] - 1.0)
        if not inside and u[6] < 0.25:
            a = complex(1 + int(24 * u[6]))
        points.append((z, n, a))
        if len(points) == count:
            return points


def near_circle_points(rng: random.Random, count: int):
    """||z| - 1| log-uniform in [1e-7, 1e-3] on both sides of the circle,
    |arg z| in [0.1, pi], n = 1..4, Re a in (0, 3], Im a in [-1, 1]; a tenth
    of the points have Re a log-uniform in [10, 1e3] instead, the large
    shifts that make the series start late (it sums at least 2|a| terms).

    A point's cost spans four decades and is set by ||z| - 1|, the side, n
    and, through the relative tolerance, |Phi|, which arg z and a move; the
    costs cluster at the work caps.  A few dozen random points then give
    percentiles that move by half from seed to seed, so the draw is a
    stratified grid: point k has its own cell in each coordinate (fixed
    permutations pair the cells), and its side, n and large-shift flag are
    fixed by k.  The seed moves each point within the middle fifth of its
    cells.
    """
    def cell(index):
        return (index % count + 0.4 + 0.2 * rng.random()) / count

    points = []
    for k in range(count):
        delta = 10.0 ** (-7.0 + 4.0 * cell(k))
        r = 1.0 - delta if k % 2 == 0 else 1.0 + delta
        theta = 0.1 + (math.pi - 0.1) * cell(7 * k)
        if k // 8 % 2:
            theta = -theta
        n = 1 + (k // 2) % 4
        big = k % 10 == (3 + k // 10) % 10  # one in ten, both sides, all n
        re_a = 10.0 ** (1.0 + 2.0 * cell(17 * k)) if big else 3.0 * cell(17 * k)
        a = complex(re_a, 2.0 * cell(11 * k) - 1.0)
        points.append((r * cmath.exp(1j * theta), n, a))
    return points


def phi_op(point):
    z, n, a = point
    try:
        res = engine.phi(z, n, a, TOL)
    except ToleranceNotMet as exc:
        key = ("raised", "ToleranceNotMet")
        if exc.result is not None:
            key += _result_key(exc.result)
        return key, "raised"
    except LerchError as exc:
        return ("raised", type(exc).__name__), "raised"
    if res.method.endswith("(degraded)"):
        return ("ok",) + _result_key(res), "degraded"
    if not _certified(res):
        return ("ok",) + _result_key(res), "uncertified"
    return ("ok",) + _result_key(res), None


# ---------------------------------------------------------------------------
# compare: every route on one point, in the order of the CLI's compare

COMPARE_ROUTES = ("series", "integral", "pv", "inverse", "integer-a")


def compare_points(rng: random.Random, count: int):
    """Disc points drawn by the CLI's theorem-1 rule, where series, integral
    and pv are all admissible; n cycles through 2, 3, 1 as in that rule."""
    points = []
    for u in halton(rng, 5):
        r = 0.15 + 0.7 * u[0]
        theta = 0.15 + (math.pi - 0.3) * u[1]
        if u[2] < 0.5:
            theta = -theta
        z = r * cmath.exp(1j * theta)
        phi_angle = cmath.phase(-cmath.log(z))
        a = complex(0.5 + 0.35 * u[3], -0.35 + 0.7 * u[4])
        if ((a - 1) * cmath.exp(1j * phi_angle)).real > -0.2:
            continue
        points.append((z, 1 + (len(points) + 1) % 3, a))
        if len(points) == count:
            return points


def _route(name, z, n, a):
    if name == "series":
        return engine.phi_series(z, n, a, TOL)
    if name == "integral":
        return engine.phi_integral(z, n, a, TOL)
    if name == "pv":
        return engine.phi_pv(z, n, a, TOL)
    if name == "inverse":
        return engine.phi_inverse(z, n, a, TOL)
    k = round(a.real)
    if k < 1 or abs(a - k) > 1e-8:
        raise DomainError(f"integer-a needs a at a positive integer, got {a}")
    return engine.phi_integer_a(z, n, k, TOL)


def compare_op(point):
    rows = []
    try:
        for name in COMPARE_ROUTES:
            try:
                rows.append((name, _route(name, *point)))
            except ToleranceNotMet as exc:
                if exc.result is not None:
                    rows.append((name, exc.result))
            except DomainError:
                pass
    except LerchError as exc:
        return ("raised", type(exc).__name__), "raised"
    certified = [
        res for _, res in rows
        if res.err_estimate <= 10 * TOL * max(1.0, abs(res.value))
    ]
    key = tuple((name,) + _result_key(res) for name, res in rows)
    if len(certified) < 2:
        return key, "fewer than two certified routes"
    scale = max(1.0, max(abs(res.value) for res in certified))
    deviation = max(abs(x.value - y.value)
                    for i, x in enumerate(certified) for y in certified[i + 1:])
    if deviation > 10 * TOL * scale:
        return key, "routes disagree"
    return key, None


# ---------------------------------------------------------------------------
# certify: one in-process ``lerchphi check --suite all`` run

CERTIFY_GRID = 2


def certify_points(rng: random.Random, count: int):
    return [rng.randrange(2 ** 31) for _ in range(count)]


# records one ``check --suite all`` run writes: symmetry, recurrences (4 per
# grid point), reflections (2 per grid point and a fixed spot value), theorem1
CERTIFY_RECORDS = CERTIFY_GRID * 8 + 1


def certify_op(seed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check", "--suite", "all", "--grid",
                         str(CERTIFY_GRID), "--seed", str(seed)])
    text = out.getvalue()
    return (code, text), None if code == 0 else f"exit {code}"


def check_certify_output(key) -> str | None:
    """Why a check run's output is malformed, or None."""
    code, text = key
    lines = text.splitlines()
    if len(lines) != CERTIFY_RECORDS:
        return f"{len(lines)} records, expected {CERTIFY_RECORDS}"
    all_pass = True
    for line in lines:
        rec = json.loads(line)
        if not math.isfinite(rec["residual"]):
            return f"non-finite residual in {rec['identity']}"
        all_pass = all_pass and rec["pass"]
    if (code == 0) != all_pass:
        return f"exit code {code} does not match the pass flags"
    return None


def phi_results(key):
    """(value, err_estimate, method, terms_or_nodes) of an engine.phi output."""
    if key[0] == "ok":
        return [key[1:]]
    return [key[2:]] if len(key) > 2 else []


def compare_results(key):
    return [row[1:] for row in key] if key[0] != "raised" else []


def _well_formed(key):
    return None


@dataclass(frozen=True)
class Workload:
    why: str
    op: Callable            # input -> (output key, failure kind or None)
    inputs: Callable        # (rng, count) -> pool of inputs
    results: Callable       # output key -> [(value, err, method, work)]
    malformed: Callable     # output key -> why it is malformed, or None
    pool: int               # distinct inputs, cycled by the timed loop
    references: int         # pool inputs checked against mpmath per run
    tail_percentile: float  # op_tail_ms, over the pool's inputs


WORKLOADS = {
    "plane": Workload(
        "everyday library calls with short sums: series and inverse kernels "
        "and the integer-shift finite part do the work, quadrature none",
        phi_op, plane_points, phi_results, _well_formed, 20000, 40, 99.9),
    "near_circle": Workload(
        "the band 1e-7 <= ||z|-1| <= 1e-3: the same kernels with sums of "
        "thousands to 300k terms, work caps and degraded results",
        phi_op, near_circle_points, phi_results, _well_formed, 24, 24, 75.0),
    "compare": Workload(
        "every route on one disc point: the only workload where quadrature "
        "dominates; bypasses the series kernels",
        compare_op, compare_points, compare_results, _well_formed, 1000, 24,
        99.0),
    "certify": Workload(
        "an in-process identity-web check: the only workload that runs the "
        "CLI, the residuals, Hurwitz zeta and polygamma",
        certify_op, certify_points, lambda key: [], check_certify_output,
        128, 0, 90.0),
}
