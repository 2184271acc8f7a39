"""Seeded job lists for the four benchmark workloads.

A workload is a fixed list of job shapes; the seed only draws the inputs the
program sees (q, half-Lefschetz bits, random polytopes, random counting
functions), chosen so that a pass costs about the same on every seed.  Each
job is a plain dict:

    name      unique within the workload
    kind      "cli" (stacky_volumes.cli.run) or "lib" (a function in libjobs)
    command   CLI subcommand, or the libjobs function name
    params    the JSON parameter object handed to the program
    checks    invariant checks run on a CLI report (checks.py); a library job
              checks its own result (libjobs.py)
    limit_s   wall-clock guard; the job is killed and counted failed past it
"""

from __future__ import annotations

import random
from fractions import Fraction

DEFAULT_SEED = 0

WORKLOADS = ("bps", "limit-formula", "geometry", "lambda-galois")


def _job(name, kind, command, params, checks=(), limit_s=30.0):
    return {"name": name, "kind": kind, "command": command, "params": params,
            "checks": list(checks), "limit_s": limit_s}


def _bits(b):
    return f"{b[0]},{b[1]}"


# -- bps: trivial Frobenius, rational coefficients ----------------------------

def bps_jobs(rng):
    # q only enters the numeric display, so it does not change the cost.  The
    # four half-Lefschetz bit patterns are dealt out over the four smaller
    # jobs, so every pass carries each pattern once and costs about the same;
    # the criterion-7 headline job keeps the default bits.
    patterns = [(0, 0), (0, 1), (1, 0), (1, 1)]
    rng.shuffle(patterns)

    def q():
        return rng.choice([2, 3, 4, 5])

    return [
        _job("bps-2loop-g6", "cli", "bps",
             {"vertices": 1, "arrows": [[0, 0, 2]], "q": q(), "gammaBound": 6,
              "levels": 2},
             ["bps_integral"], limit_s=60),
        _job("bps-0loop-g5", "cli", "bps",
             {"vertices": 1, "arrows": [], "q": q(), "gammaBound": 5, "levels": 2,
              "half_l": _bits(patterns[0])},
             ["bps_oracle_0loop"]),
        _job("bps-1loop-g5", "cli", "bps",
             {"vertices": 1, "arrows": [[0, 0, 1]], "q": q(), "gammaBound": 5,
              "levels": 2, "half_l": _bits(patterns[1])},
             ["bps_oracle_1loop"]),
        _job("bps-3loop-g4", "cli", "bps",
             {"vertices": 1, "arrows": [[0, 0, 3]], "q": q(), "gammaBound": 4,
              "levels": 2, "half_l": _bits(patterns[2])}),
        _job("bps-2vertex-g3", "cli", "bps",
             {"vertices": 2, "arrows": [[0, 1, 1], [1, 0, 1]], "q": q(),
              "gammaBound": 3, "levels": 2, "half_l": _bits(patterns[3])}),
    ]


# -- limit-formula: weighted inertia, weight regions, PGL brute force ---------

def limit_formula_jobs(rng):
    # The identity only holds for the coherent conventions (b1 = b2).
    return [
        _job("plid-check-g3l3", "cli", "plid-check",
             {"gradeBound": 3, "levelBound": 3, "q": rng.choice([2, 3, 4, 5]),
              "mode": "differences", "half_l": rng.choice(["0,0", "1,1"])},
             ["plid_identically_zero"]),
        _job("delta-m2s3", "cli", "delta", {"m": 2, "s": 3, "r": 24},
             ["delta_limit_sign"], limit_s=60),
        _job("delta-m1s3", "cli", "delta", {"m": 1, "s": 3, "r": rng.randint(18, 24)},
             ["delta_limit_sign"]),
        _job("delta-report-m1s2", "cli", "delta",
             {"max_m": 1, "max_s": 2, "max_r": rng.randint(8, 12)},
             ["delta_verdict"]),
    ]


# -- geometry: toric volumes and Ehrhart counts -------------------------------

def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _random_polytope_3d(rng):
    """A tetrahedron on the corners 1/12 (1,1,1) and 71/12 (1,1,1) and two
    random points of (1/12)Z^3 between them.  Every such polytope has four
    facets, the same bounding box and vertex denominator 12, so the lattice
    counts and the fit cost about the same on every seed."""
    lo, hi = Fraction(1, 12), Fraction(71, 12)
    while True:
        pts = [[lo] * 3, [hi] * 3] + [
            [Fraction(rng.randint(1, 71), 12) for _ in range(3)] for _ in range(2)]
        if _det3([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]):
            return [[str(c) for c in p] for p in pts]


def _bounded(chars):
    """{theta : <chi_j, theta> <= v_j} is bounded iff no nonzero theta has
    <chi_j, theta> <= 0 for all j.  Such a recession ray, if one exists, lies
    on a line <chi_j, theta> = 0, so the candidates below suffice."""
    k = len(chars[0])
    if k == 1:
        cands = [(1,), (-1,)]
    else:
        cands = [(s * -c[1], s * c[0]) for c in chars if any(c) for s in (1, -1)]
        if not cands:
            return False
    return not any(all(sum(a * b for a, b in zip(c, t)) <= 0 for c in chars)
                   for t in cands)


def _random_fiber_polytope(rng):
    """H-representation of a bounded fibre polytope {<chi_j, theta> <= v_j}
    with small characters and v_j >= 0, so that theta = 0 lies inside."""
    while True:
        k = rng.choice([1, 2])
        n = rng.randint(k + 1, 4)
        chars = [tuple(rng.randint(-1, 1) for _ in range(k)) for _ in range(n)]
        if not _bounded(chars):
            continue
        vals = [Fraction(rng.randint(0, 4), rng.randint(1, 2)) for _ in range(n)]
        return {"A": [[str(-c) for c in ch] for ch in chars],
                "b": [str(-v) for v in vals]}


def geometry_jobs(rng):
    q_worked = rng.choice([3, 5, 7])
    q_mu2 = rng.choice([3, 5, 7, 9])
    q_mu, d_mu = rng.choice([(4, 3), (5, 4), (7, 3), (7, 6)])
    jobs = [
        _job("volume-k2", "cli", "volume",
             {"n": 3, "torusRank": 2, "finiteOrders": [],
              "weights": [[1, -1, 0], [0, 1, -1]], "q": 3, "R": 12},
             limit_s=60),
        _job("volume-worked", "cli", "volume",
             {"n": 2, "torusRank": 1, "finiteOrders": [], "weights": [[1, -1]],
              "q": q_worked, "R": 10},
             ["volume_q_inverse"]),
        _job("volume-mu2", "cli", "volume",
             {"n": 1, "torusRank": 0, "finiteOrders": [2], "weights": [[1]],
              "q": q_mu2, "R": 8},
             ["volume_dm_sum"]),
        _job("volume-mu-d", "cli", "volume",
             {"n": 2, "torusRank": 0, "finiteOrders": [d_mu], "weights": [[1, 1]],
              "q": q_mu, "R": 8},
             ["volume_dm_sum"]),
        _job("volume-torus-mu2", "cli", "volume",
             {"n": 2, "torusRank": 1, "finiteOrders": [2],
              "weights": [[1, -1], [1, 0]], "q": rng.choice([3, 5, 7]), "R": 8}),
    ]
    for i in range(6):
        jobs.append(_job(f"ehrhart-3d-{i}", "cli", "ehrhart",
                         {"vertices": _random_polytope_3d(rng)},
                         ["ehrhart_limit"]))
    for i in range(2):
        jobs.append(_job(f"ehrhart-fiber-{i}", "cli", "ehrhart",
                         _random_fiber_polytope(rng), ["ehrhart_limit"]))
    return jobs


# -- lambda-galois: non-trivial Frobenius, root-of-unity values ---------------

def _dense_plane_values(rng, grade, levels):
    """A value c q^(e/2) zeta_b^k at every nonzero element of N^2 of grade
    <= grade and every level <= levels; the order b cycles, as in libjobs."""
    out = []
    for n in range(1, levels + 1):
        for total in range(1, grade + 1):
            for a in range(total + 1):
                b = (2, 3, 4, 6)[len(out) % 4]
                value = [{"zeta": str(Fraction(rng.randint(1, b - 1), b)),
                          "qexp": str(Fraction(rng.randint(-2, 2), 2)),
                          "coeff": [str(rng.randint(1, 3))]}]
                out.append({"element": [a, total - a], "level": n, "value": value})
    return out


def lambda_galois_jobs(rng):
    # q = 2, grade 3 is the largest size that stays cheap: grade 4, or q = 3
    # with dense values, costs minutes per job.
    jobs = [_job("galois-q2-g3-n6", "lib", "galois_lambda",
                 {"q": 2, "grade": 3, "levels": 6, "seed": rng.randrange(2**31)},
                 limit_s=60)]
    jobs += [
        _job(f"galois-q2-g3-n3-{i}", "lib", "galois_lambda",
             {"q": 2, "grade": 3, "levels": 3, "seed": rng.randrange(2**31)})
        for i in range(6)
    ]
    for i in range(2):
        values = _dense_plane_values(rng, 6, 12)
        for op in ("log", "log_direct"):
            jobs.append(_job(f"plethystic-{op}-{i}", "cli", "plethystic",
                             {"op": op, "rank": 2, "grade": 6, "levels": 2,
                              "values": values}))
    jobs.append(_job("plethystic-sym", "cli", "plethystic",
                     {"op": "sym", "rank": 2, "grade": 5, "levels": 4,
                      "values": _dense_plane_values(rng, 5, 4)}))
    return jobs


_JOB_LISTS = {
    "bps": bps_jobs,
    "limit-formula": limit_formula_jobs,
    "geometry": geometry_jobs,
    "lambda-galois": lambda_galois_jobs,
}

# Jobs whose outputs must agree value for value (the two logarithms).
SAME_VALUES = {
    "lambda-galois": [("plethystic-log-0", "plethystic-log_direct-0"),
                      ("plethystic-log-1", "plethystic-log_direct-1")],
}


def build(workload: str, seed: int) -> list[dict]:
    return _JOB_LISTS[workload](random.Random(f"{workload}/{seed}"))
