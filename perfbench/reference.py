"""Reference values computed apart from tracestab, and the output checks.

Every check here compares a program output with a computation written in
this file (closed forms, Bessel identities, dense searches, direct sums
over the grid nodes) or with a property the method must have.  The check
functions take plain numbers and arrays, so `selftest.py` can feed each of
them a deliberately wrong value and confirm that it is rejected.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.special as sp
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.optimize import minimize_scalar

# Landau: |J_nu(r)| <= LANDAU_C r^{-1/3} for every nu >= 0 and r > 0.
LANDAU_C = 0.7857468704


class Checks:
    """Pass/fail tally per check name; keeps the first failure of each."""

    def __init__(self):
        self.tally: dict[str, list] = {}
        self.notes: list[str] = []   # diagnostics that do not decide `correct`

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        ok = bool(ok)
        row = self.tally.setdefault(name, [0, 0, None])
        row[0 if ok else 1] += 1
        if not ok and row[2] is None:
            row[2] = detail
        return ok

    def note(self, text: str) -> None:
        self.notes.append(text)

    @property
    def correct(self) -> bool:
        return all(row[1] == 0 for row in self.tally.values())

    def failures(self) -> list[str]:
        return [f"{name}: {row[1]} failed, first: {row[2]}"
                for name, row in self.tally.items() if row[1]]

    def summary(self) -> list[str]:
        return [f"check {name}: {row[0]} pass, {row[1]} fail"
                for name, row in sorted(self.tally.items())]


def lp(x, p: float) -> float:
    return float(np.sum(np.abs(np.asarray(x, dtype=float)) ** p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# spectrum


def homogeneous_lambda(n: int, s: float, k: int) -> float:
    """Gamma-ratio formula for lambda_k with weight r^{-2s}:
    2^{1-2s} G(2s-1) G(k+(n-2s)/2) / (G(s)^2 G(k-1+(n+2s)/2))."""
    return math.exp(
        (1.0 - 2.0 * s) * math.log(2.0) + math.lgamma(2.0 * s - 1.0)
        + math.lgamma(k + (n - 2.0 * s) / 2.0) - 2.0 * math.lgamma(s)
        - math.lgamma(k - 1.0 + (n + 2.0 * s) / 2.0)
    )


def inhomogeneous_s2_lambda(n: int, k: int) -> float:
    """lambda_k for w = (1+r^2)^{-2}: the a-derivative at a = 1 of
    int J_nu^2 r (a^2+r^2)^{-1} dr = I_nu(a) K_nu(a), halved and negated."""
    nu = k + (n - 2.0) / 2.0
    return float(-0.5 * (sp.ivp(nu, 1.0) * sp.kv(nu, 1.0)
                         + sp.iv(nu, 1.0) * sp.kvp(nu, 1.0)))


def table_weight(r_table, w_table, tail_exponent):
    """The custom weight as it is defined: PCHIP inside the table, the first
    value below it and c r^{-a} above it."""
    r_table = np.asarray(r_table, float)
    w_table = np.asarray(w_table, float)
    spline = PchipInterpolator(r_table, w_table)
    c = w_table[-1] * r_table[-1] ** tail_exponent

    def w(r):
        r = np.asarray(r, float)
        inside = np.clip(r, r_table[0], r_table[-1])
        out = spline(inside)
        out = np.where(r < r_table[0], w_table[0], out)
        return np.where(r > r_table[-1], c * r ** -tail_exponent, out)

    return w


def table_error_bound(r_table, w_table, tail_exponent, w_exact) -> float:
    """Bound on |lambda_k(table) - lambda_k(exact)| for every k:
    int |w_table - w_exact| min(r, LANDAU_C^2 r^{1/3}) dr, since r J_nu^2 is
    at most r (|J_nu| <= 1) and at most LANDAU_C^2 r^{1/3} (Landau)."""
    w_tab = table_weight(r_table, w_table, tail_exponent)

    def f(r):
        return abs(float(w_tab(r)) - float(w_exact(r))) * min(r, LANDAU_C ** 2 * r ** (1 / 3))

    edges = np.concatenate([[0.0], np.asarray(r_table, float)])
    total = sum(quad(f, a, b, limit=200)[0] for a, b in zip(edges[:-1], edges[1:]))
    return total + quad(f, edges[-1], np.inf, limit=200)[0]


def check_unit_constants(checks: Checks, lambda0: float, c_prime: float) -> None:
    """n = 3, s = 1: lambda_k = 1/(2k+1), so lambda_0 = 1 and C' = 2/3."""
    checks.check("sphere.homogeneous.closed_values",
                 abs(lambda0 - 1.0) < 1e-14 and abs(c_prime - 2.0 / 3.0) < 1e-14,
                 f"lambda_0 {lambda0!r}, C' {c_prime!r}")


def check_spectrum(checks: Checks, label: str, values, reference, tol: float,
                   lambda_star: float, k_set, tail_bound: float,
                   reference_next: float) -> None:
    """values against reference (absolute tol), lambda_star and the attaining
    set against the reference maximum over k >= 1, and the truncation
    certificate against the reference lambda_{K+1} (the reference spectra
    here decrease in k, so lambda_{K+1} is the sup over k > K)."""
    values = np.asarray(values, float)
    reference = np.asarray(reference, float)
    err = float(np.max(np.abs(values - reference)))
    checks.check(f"{label}.lambda", err <= tol, f"max |lambda - ref| {err:.3e} > {tol:.3e}")
    k_ref = int(np.argmax(reference[1:])) + 1
    checks.check(f"{label}.lambda_star",
                 abs(lambda_star - reference[k_ref]) <= tol and tuple(k_set) == (k_ref,),
                 f"lambda_star {lambda_star!r} K_set {tuple(k_set)} vs "
                 f"{reference[k_ref]!r} at k={k_ref}")
    checks.check(f"{label}.tail_certificate",
                 reference_next - tol <= tail_bound < lambda_star,
                 f"tail bound {tail_bound!r} not in [{reference_next - tol!r}, {lambda_star!r})")


# ---------------------------------------------------------------------------
# harmonic


def grid_kernels(r, w_r, n: int, k_max: int) -> np.ndarray:
    """(k_max+1, N) matrix of J_{k+(n-2)/2}(r) sqrt(r w(r)) on the nodes."""
    nu = np.arange(k_max + 1)[:, None] + (n - 2.0) / 2.0
    return sp.jv(nu, r[None, :]) * np.sqrt(r * w_r)[None, :]


def check_radial_grid(checks: Checks, r, wq, r_max: float) -> None:
    """The composite Gauss rule integrates 1 and r^2 on (0, r_max] exactly."""
    e0 = abs(float(np.sum(wq)) - r_max) / r_max
    e2 = abs(float(np.sum(wq * r * r)) - r_max ** 3 / 3.0) / (r_max ** 3 / 3.0)
    checks.check("sphere.radial_grid", max(e0, e2) < 1e-12,
                 f"moment errors {e0:.2e}, {e2:.2e}")


def trial_sums(entries: dict, wq, kernels):
    """(sumB, sumA, A_{0,1}) of a profile set, summed directly over the nodes."""
    sum_b = sum_a = a01 = 0.0
    for (k, m), g in entries.items():
        sum_b += float(np.dot(wq, g * g))
        a = float(np.dot(wq, g * kernels[k])) ** 2
        sum_a += a
        if (k, m) == (0, 1):
            a01 = a
    return sum_b, sum_a, a01


def check_trial(checks: Checks, label: str, sums, lam0: float, c_prime: float,
                deficit: float, dist_sq: float, satisfied: bool,
                reverse_holds: bool, reverse_margin: float, tol: float = 1e-8) -> None:
    """deficit and dist^2 recomputed from the profiles agree with the program
    to round-off; stability deficit >= C' dist^2 - tol sumB and reverse
    deficit <= lambda_0 dist^2 hold."""
    sum_b, sum_a, a01 = sums
    scale = lam0 * sum_b
    ref_def = lam0 * sum_b - sum_a
    ref_dist = sum_b - a01 / lam0
    dev = max(abs(deficit - ref_def), lam0 * abs(dist_sq - ref_dist),
              abs(reverse_margin - (sum_a - a01))) / scale
    checks.check(f"{label}.deficit_recomputed", dev < 1e-10,
                 f"relative deviation {dev:.3e} from the direct sums")
    checks.check(f"{label}.stability",
                 satisfied and ref_def >= c_prime * ref_dist - tol * sum_b,
                 f"deficit {ref_def!r} < C' dist^2 {c_prime * ref_dist!r}")
    checks.check(f"{label}.reverse",
                 reverse_holds and ref_def <= lam0 * ref_dist + 1e-12 * scale,
                 f"deficit {ref_def!r} > lambda_0 dist^2 {lam0 * ref_dist!r}")


def check_ratio(checks: Checks, name: str, ratio: float, expected: float,
                scale: float, tol: float = 1e-8) -> None:
    dev = abs(ratio - expected) / scale
    checks.check(name, dev < tol, f"ratio {ratio!r} vs {expected!r} (dev {dev:.2e})")


# ---------------------------------------------------------------------------
# transport


CONTINUUM_RATIO = math.pi ** (2.0 / 3.0) * 2.0 ** (-1.0 / 3.0)


def gaussian_velocity_average(t, x):
    """rho f for f = exp(-x^2 - v^2): sqrt(pi/(1+t^2)) exp(-x^2/(1+t^2))."""
    return np.sqrt(np.pi / (1.0 + t ** 2)) * np.exp(-x ** 2 / (1.0 + t ** 2))


def grid_lp(samples, h: float, e: float) -> float:
    return float((h ** samples.ndim * np.sum(np.abs(samples) ** e)) ** (1.0 / e))


def check_gaussian(checks: Checks, rho, exact, tol: float = 1e-4) -> None:
    err = float(np.max(np.abs(rho - exact)))
    checks.check("kinetic.gaussian_average", err < tol, f"max error {err:.3e} >= {tol:.0e}")


def check_pairing(checks: Checks, rho, G, f, ray, h: float, tol: float = 1e-5) -> None:
    """<rho f, G> = <f, rho* G> under the grid rule, on a resolved pair."""
    lhs = h * h * float(np.sum(rho * G))
    rhs = h * h * float(np.sum(f * ray))
    rel = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    checks.check("kinetic.pairing", rel < tol, f"relative mismatch {rel:.3e}")


def check_rhat(checks: Checks, rhat: float, L: float, h: float) -> None:
    """R-hat within the box and rule error of the continuum ratio: the
    extremiser pair decays like (1+r^2)^{-3/2} in its norms, so cutting at
    |.| <= L drops a share of about 1/L, and the rectangle rule on unit-scale
    bumps errs by about h^2/12."""
    bound = 1.0 / L + h * h / 12.0
    rel = abs(rhat / CONTINUUM_RATIO - 1.0)
    checks.check("kinetic.rhat_continuum", rel <= bound,
                 f"R-hat {rhat!r} off the continuum {CONTINUUM_RATIO!r} by {rel:.3e} > {bound:.3e}")


def check_draw(checks: Checks, f, rho, h: float, p: float, q: float,
               ratio: float, rhat: float) -> None:
    """A random draw's ratio, recomputed from the samples, matches the
    program's and stays below R-hat (1 + 1e-3)."""
    ref = grid_lp(rho, h, q) / grid_lp(f, h, p)
    checks.check("kinetic.draw_ratio", abs(ratio - ref) <= 1e-12 * ref,
                 f"ratio {ratio!r} vs recomputed {ref!r}")
    checks.check("kinetic.sharp_ratio", ref <= rhat * (1.0 + 1e-3),
                 f"draw ratio {ref!r} beats R-hat {rhat!r}")


def check_probe(checks: Checks, direction, h: float, e_in: float, eps, deficits,
                dist_sq, ratios) -> None:
    """Unit input norm, nonnegative deficits, ratio = deficit/dist^2, and
    deficit/eps^2 within a factor 2 across the eps list."""
    nrm = grid_lp(direction, h, e_in)
    checks.check("kinetic.direction_norm", abs(nrm - 1.0) < 1e-9, f"norm {nrm!r}")
    deficits = np.asarray(deficits, float)
    checks.check("kinetic.deficit_nonnegative", bool(np.all(deficits >= 0.0)),
                 f"deficits {deficits.tolist()}")
    consistent = all(abs(r - d / s) <= 1e-12 * abs(r) for r, d, s in zip(ratios, deficits, dist_sq))
    checks.check("kinetic.probe_ratio", consistent, "ratio != deficit / dist^2")
    coef = deficits / np.asarray(eps, float) ** 2
    band = float(np.max(coef) / np.min(coef)) if np.all(coef > 0) else math.inf
    checks.check("kinetic.quadratic_band", band <= 2.0, f"band {band!r} > 2")


# ---------------------------------------------------------------------------
# duality


def two_column_norm(M, p: float, q: float, mesh: int = 4097) -> float:
    """sup ||M g||_q over nonnegative g = (cos t, sin t)/||.||_p: a dense
    angular search, then a bounded refinement around the best mesh point."""
    M = np.asarray(M, float)

    def value(t):
        g = np.array([math.cos(t), math.sin(t)])
        return lp(M @ (g / lp(g, p)), q)

    ts = np.linspace(0.0, 0.5 * math.pi, mesh)
    g = np.stack([np.cos(ts), np.sin(ts)], axis=1)
    g /= np.sum(g ** p, axis=1, keepdims=True) ** (1.0 / p)
    vals = np.sum(np.abs(g @ M.T) ** q, axis=1) ** (1.0 / q)
    i = int(np.argmax(vals))
    step = ts[1] - ts[0]
    lo, hi = max(0.0, ts[i] - step), min(0.5 * math.pi, ts[i] + step)
    res = minimize_scalar(lambda t: -value(t), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-13})
    return max(float(vals[i]), -float(res.fun))


def check_norm(checks: Checks, name: str, value: float, reference: float,
               tol: float) -> None:
    rel = abs(value - reference) / reference
    checks.check(name, rel < tol, f"norm {value!r} vs reference {reference!r} (rel {rel:.2e})")


def check_transfer(checks: Checks, M, g, p: float, q: float, norm: float) -> None:
    """The transferred vector attains the norm: ||M g||_q = norm ||g||_p."""
    achieved = lp(np.asarray(M, float) @ g, q) / lp(g, p)
    rel = abs(achieved - norm) / norm
    checks.check("duality.transfer_attains", rel < 1e-8,
                 f"achieved {achieved!r} vs norm {norm!r}")


def check_brute_force(checks: Checks, value: float, brute: float) -> None:
    """The mesh sup is a lower bound that the norm search matches to 1e-4."""
    rel = (value - brute) / brute
    checks.check("duality.brute_force_agreement", -1e-12 <= rel < 1e-4,
                 f"norm {value!r} vs mesh sup {brute!r}")


def duality_map(F, r: float) -> np.ndarray:
    F = np.asarray(F, float)
    return np.abs(F) ** (r - 1.0) * np.sign(F) / lp(F, r) ** (r - 1.0)


def check_cfl3(checks: Checks, g1, g2, r: float, lhs: float, rhs: float) -> None:
    """Duality-map continuity: lhs recomputed here, and lhs <= rhs."""
    ref = lp(duality_map(g1, r) - duality_map(g2, r), r / (r - 1.0))
    ok = abs(lhs - ref) <= 1e-10 * max(ref, 1e-300) + 1e-15 and lhs <= rhs * (1.0 + 1e-12)
    checks.check("duality.map_continuity", ok, f"lhs {lhs!r} (ref {ref!r}) vs rhs {rhs!r}")


def check_cfl1(checks: Checks, h1, h2, pairing: float, bound: float) -> None:
    """Sharpened Hoelder: |<h1, h2>| recomputed here, and it is <= bound."""
    ref = abs(float(np.dot(h1, h2)))
    ok = abs(pairing - ref) <= 1e-12 and pairing <= bound + 1e-12
    checks.check("duality.sharpened_hoelder", ok,
                 f"pairing {pairing!r} (ref {ref!r}) vs bound {bound!r}")
