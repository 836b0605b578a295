"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line (visible with pytest -s or on failure) and
asserts every point of its seeded grid at the stated tolerance.  Full-suite
runtime stays at desk scale.
"""

import cmath
import math
import random
import time

from lerchphi import cli
from lerchphi.engine import (
    phi_integer_a,
    phi_integral,
    phi_inverse,
    phi_pv,
    phi_series,
    symmetry_transform,
)
from lerchphi.identities import (
    residual_hurwitz_reflection,
    residual_pde,
    residual_polygamma_reflection,
    residual_s_ladder,
    residual_shift,
    residual_symmetry,
)
from lerchphi.special_functions import (
    bernoulli,
    hurwitz_zeta,
    tan_series_coeff,
)
from oracles import phi_integer_a_explicit


def report(criterion: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {criterion}: {status}")
    assert not failures, failures[:5]


def sample_disc(rng, r_lo=0.15, r_hi=0.85):
    r = rng.uniform(r_lo, r_hi)
    theta = rng.choice((1, -1)) * rng.uniform(0.15, math.pi - 0.15)
    return r * cmath.exp(1j * theta)


def sample_nonint(rng, lo, hi, im=0.45):
    while True:
        a = complex(rng.uniform(lo, hi), rng.uniform(-im, im))
        if abs(a - round(a.real)) >= 0.05:
            return a


def test_criterion_1_series_vs_integral():
    """Cross-representation agreement on 100 points, mixed norm 1e-10."""
    rng = random.Random(1001)
    failures = []
    for _ in range(100):
        r = rng.uniform(0.1, 0.9)
        theta = rng.uniform(-math.pi, math.pi)
        z = r * cmath.exp(1j * theta)
        n = rng.randint(1, 5)
        a = sample_nonint(rng, 0.15, 1.9, im=0.9)
        v1 = phi_series(z, n, a, 1e-11).value
        v2 = phi_integral(z, n, a, 1e-11).value
        diff = abs(v1 - v2)
        if diff > 1e-10 * (1.0 + max(abs(v1), abs(v2))):
            failures.append((z, n, a, diff))
    report("1 (series vs integral)", failures)


def test_criterion_2_theorem1_pv_representation():
    """PV representation matches the series within 1e-8; < 100 ms/point."""
    rng = random.Random(1002)
    pts = []
    while len(pts) < 30:
        z = sample_disc(rng)
        phi_angle = cmath.phase(-cmath.log(z))
        a = complex(rng.uniform(0.5, 0.85), rng.uniform(-0.35, 0.35))
        if ((a - 1) * cmath.exp(1j * phi_angle)).real > -0.2:
            continue
        pts.append((z, rng.randint(1, 5), a))
    phi_pv(0.5, 1, 0.4, 1e-9)  # warm the coefficient caches
    failures = []
    slowest = 0.0
    for z, n, a in pts:
        t0 = time.perf_counter()
        v_pv = phi_pv(z, n, a, 1e-9).value
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        v_series = phi_series(z, n, a, 1e-11).value
        diff = abs(v_pv - v_series)
        if diff > 1e-8:
            failures.append((z, n, a, diff))
        if elapsed > 0.1:
            failures.append((z, n, a, f"runtime {elapsed:.3f}s"))
    print(f"  slowest pv point: {slowest * 1000:.1f} ms")
    report("2 (theorem 1 PV route)", failures)


def test_criterion_3_theorem2_symmetry():
    """Symmetry residual <= 1e-9 on 50 points; involution within 2x.

    Both sides of the relation scale like min(|a|, |1-a|)^-n, so the grid
    keeps the shift away from the poles for high orders; beyond that the
    absolute gate would sink below the double-precision floor.
    """
    rng = random.Random(1003)
    failures = []
    for _ in range(50):
        z = sample_disc(rng)
        n = rng.randint(1, 5)
        margin = 0.35 if n >= 4 else 0.1
        a = sample_nonint(rng, margin, 1.0 - margin, im=0.3)
        res = residual_symmetry(z, n, a)
        if res > 1e-9:
            failures.append((z, n, a, res))
        partner, _ = symmetry_transform(z, n, a)
        mirrored = residual_symmetry(partner.z, partner.n, partner.a)
        if mirrored > 2e-9:
            failures.append((partner.z, n, partner.a, mirrored))
    report("3 (theorem 2 symmetry)", failures)


def test_criterion_4_corollary1_inverse_expansion():
    """Inverse-argument expansion vs integral representation, 1e-9."""
    rng = random.Random(1004)
    failures = []
    for _ in range(50):
        r = rng.uniform(1.2, 5.0)
        theta = rng.choice((1, -1)) * rng.uniform(0.25, math.pi - 0.25)
        w = r * cmath.exp(1j * theta)
        n = rng.randint(1, 5)
        b = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.5, 0.5))
        v1 = phi_inverse(w, n, b, 1e-10).value
        v2 = phi_integral(w, n, b, 1e-10).value
        diff = abs(v1 - v2)
        if diff > 1e-9:
            failures.append((w, n, b, diff))
    report("4 (corollary 1 expansion)", failures)


def test_criterion_5_integer_shift_finite_part():
    """Laurent finite part vs explicit table (1e-12) and integral (1e-9)."""
    failures = []
    for w in (-2.0, 2j, 3 + 4j):
        for n in range(1, 6):
            for bign in (1, 2, 3):
                generic = phi_integer_a(w, n, bign, 1e-12).value
                explicit = phi_integer_a_explicit(w, n, bign)
                if abs(generic - explicit) > 1e-12:
                    failures.append((w, n, bign, "explicit",
                                     abs(generic - explicit)))
                integral = phi_integral(w, n, float(bign), 1e-10).value
                if abs(generic - integral) > 1e-9:
                    failures.append((w, n, bign, "integral",
                                     abs(generic - integral)))
    spot = phi_integer_a(-2.0, 1, 1, 1e-12).value
    if abs(spot - math.log(3) / 2) > 1e-12:
        failures.append(("spot", abs(spot - math.log(3) / 2)))
    report("5 (integer-shift finite part)", failures)


def test_criterion_6_identity_web():
    """shift <= 1e-10, s-ladder <= 1e-6, pde <= 1e-6, both sides of |z|=1."""
    rng = random.Random(1006)
    failures = []
    for i in range(30):
        if i % 2 == 0:
            z = sample_disc(rng, r_lo=0.35, r_hi=0.85)
        else:
            r = rng.uniform(1.3, 4.0)
            theta = rng.choice((1, -1)) * rng.uniform(0.25, math.pi - 0.25)
            z = r * cmath.exp(1j * theta)
        a = sample_nonint(rng, 0.35, 0.9, im=0.4)
        res = residual_shift(z, rng.randint(1, 4), a)
        if res > 1e-10:
            failures.append(("shift", z, a, res))
        down, up = residual_s_ladder(z, rng.randint(2, 4), a)
        if down > 1e-6 or up > 1e-6:
            failures.append(("s-ladder", z, a, down, up))
        res = residual_pde(z, rng.randint(1, 3), a)
        if res > 1e-6:
            failures.append(("pde", z, a, res))
    report("6 (identity web)", failures)


def test_criterion_7_reflection_identities():
    """Hurwitz and polygamma reflections on 20 points plus the 2 pi^2 spot."""
    rng = random.Random(1007)
    failures = []
    spot = hurwitz_zeta(2, 0.25) + hurwitz_zeta(2, 0.75)
    if abs(spot - 2 * math.pi**2) > 1e-10:
        failures.append(("spot 2pi^2", abs(spot - 2 * math.pi**2)))
    for _ in range(20):
        a = sample_nonint(rng, 0.05, 0.95)
        res = residual_hurwitz_reflection(rng.randint(2, 5), a)
        if res > 1e-9:
            failures.append(("hurwitz", a, res))
        res = residual_polygamma_reflection(rng.randint(1, 3), a)
        if res > 1e-9:
            failures.append(("polygamma", a, res))
    report("7 (reflection identities)", failures)


def half_integer_power_sum(p: int, terms: int = 60) -> float:
    """Direct summation oracle with Euler-Maclaurin tail (hard-coded B2, B4)."""
    s = math.fsum(2.0 / (m + 0.5) ** p for m in range(terms))
    u = terms + 0.5
    s += 2.0 * u ** (1 - p) / (p - 1)
    s += u ** (-p)
    s += p / 6.0 * u ** (-p - 1)
    s -= p * (p + 1) * (p + 2) / 360.0 * u ** (-p - 3)
    return s


def test_criterion_8_bernoulli_machinery():
    """Half-integer power sums and the tangent series, both to 1e-10."""
    failures = []
    for ell in range(6):
        p = 2 * ell + 2
        closed = (
            (2 * math.pi) ** p
            * (2**p - 1)
            / math.factorial(p)
            * abs(bernoulli(p))
        )
        diff = abs(float(closed) - half_integer_power_sum(p))
        if diff > 1e-10:
            failures.append(("power sum", ell, diff))
    for alpha in (0.1, 0.3, 0.7):
        total, k = 0.0, 0
        while True:
            k += 1
            term = float(tan_series_coeff(k)) * alpha ** (2 * k - 1)
            total += term
            if abs(term) < 1e-14 or k > 60:
                break
        diff = abs(total - math.tan(alpha))
        if diff > 1e-10:
            failures.append(("tangent", alpha, diff))
    report("8 (Bernoulli machinery)", failures)


def test_criterion_9_sweep_determinism(tmp_path):
    """cmd_sweep output byte-identical across runs with the same flags."""
    args = [
        "sweep", "--abs-z", "0.3:2.5:4", "--arg-z", "0.4:2.8:4",
        "--a-re", "0.3:0.7:2", "--a-im=-0.2:0.2:2", "--n", "3",
    ]
    f1, f2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert cli.main(args + ["--out", str(f1)]) == 0
    assert cli.main(args + ["--out", str(f2)]) == 0
    failures = []
    if f1.read_bytes() != f2.read_bytes():
        failures.append("sweep outputs differ")
    report("9 (sweep determinism)", failures)
