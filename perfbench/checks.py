"""Invariant checks on CLI reports, run in the worker after the timing stops.

They need no golden file, so they hold on every seed.  Each check takes the
job and its parsed ``--output`` report and returns True when it holds.  The
Euler-product closed forms for the 0- and 1-loop quivers are restated here
from the library's public scalar API, so that the benchmark does not depend on
the test helpers.
"""

from __future__ import annotations

from fractions import Fraction

from stacky_volumes import scalar as sc
from stacky_volumes import stacky as st


def _mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _convention(params):
    b1, b2 = (int(b) for b in params.get("half_l", "1,1").split(","))
    return sc.HalfLConvention(b1, b2)


def _half_l_difference(level, conv):
    return sc.half_l_level(level, conv) - sc.half_l_power(-1, level, conv)


def zero_loop_omega(a, level, conv):
    """Omega of the arrowless one-vertex quiver, from prod_k (1 + z q^(1/2-k))."""
    acc = sc.ExactScalar.zero()
    for m in range(1, a + 1):
        if a % m:
            continue
        s = a // m
        sign = _mobius(m) * (-1) ** (s - 1)
        term = sc.half_l_power(s, m * level, conv) / (sc.q_power(a * level) - 1)
        acc = acc + term * Fraction(sign, a)
    return acc * _half_l_difference(level, conv)


def one_loop_omega(a, level, conv):
    """Omega of the one-loop quiver, from prod_k (1 - z q^(-k))^(-1)."""
    acc = sc.ExactScalar.zero()
    for m in range(1, a + 1):
        if a % m == 0:
            term = sc.q_power(a * level) / (sc.q_power(a * level) - 1)
            acc = acc + term * Fraction(_mobius(m), a)
    return acc * _half_l_difference(level, conv)


def _omegas(report):
    for row in report["invariants"]:
        (a,) = row["gamma"]
        for level, entry in enumerate(row["omega"], start=1):
            yield a, level, sc.ExactScalar.from_json(entry["exact"])


def bps_oracle_0loop(job, report):
    conv = _convention(job["params"])
    return all(v == zero_loop_omega(a, n, conv) for a, n, v in _omegas(report))


def bps_oracle_1loop(job, report):
    conv = _convention(job["params"])
    return all(v == one_loop_omega(a, n, conv) for a, n, v in _omegas(report))


def bps_integral(job, report):
    """Loop quivers: every Omega, divided by a uniform half-Lefschetz power,
    is a Laurent polynomial in q with integer coefficients (criterion 7)."""
    conv = _convention(job["params"])
    by_gamma = {}
    for a, n, v in _omegas(report):
        by_gamma.setdefault(a, []).append((n, v))
    for levels in by_gamma.values():
        if not any(_integral(levels, parity, conv) for parity in (0, 1)):
            return False
    return True


def _integral(levels, parity, conv):
    for n, v in levels:
        w = v * sc.half_l_power(-parity, n, conv)
        if not w.is_laurent():
            return False
        for e, c in w.num.items():
            if e.denominator != 1 or not c.is_rational():
                return False
            if c.as_rational().denominator != 1:
                return False
    return True


def plid_identically_zero(job, report):
    return report["identically_zero"] is True and all(
        e["residual_zero"] for e in report["entries"])


def delta_limit_sign(job, report):
    """The fitted differences-mode limit of a weight region is (-1)^s."""
    return report["differences"]["limit"] == str((-1) ** job["params"]["s"])


def delta_verdict(job, report):
    verdict = report["verdict"]
    cells = {(row["m"], row["s"]): row for row in report["table"]}
    return (verdict["differences"]["bruteforce_match"]
            and verdict["differences"]["identity_residual_zero"]
            and "differences" in report["determination"]
            and cells[(1, 1)]["limits"] == {"differences": "-1", "orbits": "-1"})


def volume_q_inverse(job, report):
    return (sc.ExactScalar.from_json(report["volume"]["exact"]) == sc.q_power(-1)
            and report["volume"]["display"] == "q^-1")


def volume_dm_sum(job, report):
    """Finite quotients: the fitted volume equals the orbifold sum over the
    twisted sectors (criterion 2)."""
    p = job["params"]
    datum = st.ToricStackDatum(p["n"], p["torusRank"], p["finiteOrders"],
                               p["weights"], p["q"])
    return sc.ExactScalar.from_json(report["volume"]["exact"]) == st.dm_orbifold_sum(datum)


def ehrhart_limit(job, report):
    """Every generated polytope is nonempty and bounded, so the limit is -1."""
    return not report["empty"] and report["limit"]["display"] == "-1"


CHECKS = {f.__name__: f for f in (
    bps_oracle_0loop, bps_oracle_1loop, bps_integral, plid_identically_zero,
    delta_limit_sign, delta_verdict, volume_q_inverse, volume_dm_sum, ehrhart_limit,
)}
