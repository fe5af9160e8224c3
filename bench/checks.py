"""Output checks made apart from the program.

Every function here reads the program's stored output (report dicts, bounds
CSV text, allocations) and recomputes its claims with ``tiered``, the
benchmark's own arithmetic. Each returns a list of problems; an empty list
means the output is correct. Nothing here imports ``mechdock``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import tiered

# The paper's figure for each warm-up strategy; the chain's is 1 + a.
PAPER_3X3 = Fraction(22055, 10000)
TRUTHFUL_PREFIXES = ("minwork", "dictator:")


class Inst:
    """A stored instance (``to_json_dict`` form), parsed cell by cell on use."""

    def __init__(self, d):
        self.n, self.m = int(d["n"]), int(d["m"])
        self.costs = d["costs"]
        self._parsed = {}
        if len(self.costs) != self.n or any(len(r) != self.m for r in self.costs):
            raise ValueError("cost matrix disagrees with n, m")

    def cost(self, i, j):
        key = (i, j)
        if key not in self._parsed:
            self._parsed[key] = tiered.parse(self.costs[i - 1][j - 1])
        return self._parsed[key]

    def load(self, owner, i):
        total = {}
        for j, p in enumerate(owner, start=1):
            if p == i:
                total = tiered.add(total, self.cost(i, j))
        return total

    def makespan(self, owner):
        best = {}
        for i in range(1, self.n + 1):
            li = self.load(owner, i)
            if tiered.compare(li, best) > 0:
                best = li
        return best


def owner_problems(inst, owner, label):
    if len(owner) != inst.m:
        return [f"{label}: {len(owner)} owners for {inst.m} jobs"]
    bad = [j for j, p in enumerate(owner, start=1) if not 1 <= p <= inst.n]
    return [f"{label}: job {bad[0]} has no valid owner"] if bad else []


def paper_floor(strategy, params):
    if strategy == "s2x2":
        return Fraction(2)
    if strategy == "s3x3":
        return PAPER_3X3
    if strategy == "s3x4":
        return 1 + Fraction(params["x"])
    if strategy == "main":
        return 1 + Fraction(params["a"])
    raise ValueError(f"no paper figure for strategy {strategy!r}")


def check_report(report):
    """Recompute the stored verdict of an attack report."""
    verdict = report["verdict"]
    kind = verdict["kind"]
    if kind == "StrategyIncomplete":
        return [f"strategy incomplete: {verdict.get('diagnostic')}"]
    if kind == "WmonViolation":
        if report["mechanism"].startswith(TRUTHFUL_PREFIXES):
            return [f"truthful {report['mechanism']} yielded a WMON violation"]
        return check_violation(verdict)
    if kind not in ("RatioWitness", "Unbounded"):
        return [f"unknown verdict kind {kind!r}"]
    inst = Inst(verdict["instance"])
    mech = verdict["mech_allocation"]["owner"]
    cert = verdict["certificate"]["owner"]
    problems = owner_problems(inst, mech, "mechanism") + owner_problems(
        inst, cert, "certificate"
    )
    if problems:
        return problems
    ms_cert = inst.makespan(cert)
    if tiered.is_inf(ms_cert) or not ms_cert:
        return ["certificate makespan is infinite or zero"]
    if kind == "Unbounded":
        if verdict["reason"] == "infinite-assignment":
            if not any(tiered.is_inf(inst.cost(p, j)) for j, p in enumerate(mech, 1)):
                return ["no job is assigned at infinite cost"]
            return []
        if verdict["reason"] == "tier-gap":
            ms_mech = inst.makespan(mech)
            if tiered.leading_ratio(ms_mech, ms_cert) != tiered.UNBOUNDED:
                return ["no tier gap between the makespans"]
            return []
        return [f"unknown unboundedness reason {verdict['reason']!r}"]
    claimed = Fraction(verdict["claimed_bound"])
    floor = paper_floor(report["strategy"], report["params"])
    if claimed < floor:
        problems.append(f"claimed bound {claimed} is below the paper's {floor}")
    ratio = tiered.leading_ratio(inst.makespan(mech), ms_cert)
    if ratio != tiered.UNBOUNDED and ratio < claimed:
        problems.append(f"ratio {ratio} does not meet the claimed {claimed}")
    return problems


def check_violation(v):
    """A stored WMON violation: one row differs, and the sum is positive."""
    T, Tp = Inst(v["T"]), Inst(v["Tprime"])
    i = int(v["player"])
    x, xp = v["x"]["owner"], v["xprime"]["owner"]
    if (T.n, T.m) != (Tp.n, Tp.m):
        return ["the two instances differ in size"]
    problems = owner_problems(T, x, "first") + owner_problems(Tp, xp, "second")
    for r in range(1, T.n + 1):
        if r == i:
            continue
        for j in range(1, T.m + 1):
            same_text = T.costs[r - 1][j - 1] == Tp.costs[r - 1][j - 1]
            if not same_text and tiered.compare(T.cost(r, j), Tp.cost(r, j)):
                problems.append(f"the instances differ in row {r}, not only {i}")
                break
    if problems:
        return problems
    total = {}
    for j in range(1, T.m + 1):
        d = (x[j - 1] == i) - (xp[j - 1] == i)
        if not d:
            continue
        t, tp = T.cost(i, j), Tp.cost(i, j)
        if tiered.is_inf(t) or tiered.is_inf(tp):
            return [f"job {j} flips at an infinite cost"]
        diff = tiered.add(t, tiered.scale(Fraction(-1), tp))
        total = tiered.add(total, tiered.scale(Fraction(d), diff))
    if tiered.sign(total) <= 0:
        problems.append("the recomputed WMON sum is not positive")
    if tiered.compare(total, tiered.parse(v["value"])):
        problems.append(f"stored WMON sum {v['value']} differs from recomputed")
    return problems


def check_same_run(report, reference):
    """Two reports of one strategy: same verdict, same owner vector per step."""
    problems = []
    if report["verdict"] != reference["verdict"]:
        problems.append("verdict differs from the reference run")
    owners = [s.get("owner") for s in report["transcript"]]
    if owners != [s.get("owner") for s in reference["transcript"]]:
        problems.append("owner vectors differ from the reference run")
    return problems


# -- the block chain's parameters -------------------------------------------


def chain_bound(a, r, k_c):
    """Certified ratio of the r-block chain at scale a, or None if infeasible.

    Block prices come from the backward recurrence s_r = 0,
    s_{k-1} = 2 s_k - a^-(k-2) + 4 a^-k + z, b_k = s_{k-1} - s_k, with chain
    weight z = sum_{t=1..k_c} a^-(r+t). Each b_k must be at least a^-k. The
    bound is min(1 + a, V_0, V_1..V_r): V_0 = 1 + sum b + z is the
    all-blocks arm, V_k the arm where block k was transitioned.
    """
    a = Fraction(a)
    inv = [a**-k for k in range(r + k_c + 1)]
    z = sum(inv[r + 1 : r + k_c + 1], Fraction(0))
    s = Fraction(0)
    b = [Fraction(0)] * (r + 1)
    for k in range(r, 0, -1):
        s_prev = 2 * s - a ** (2 - k) + 4 * inv[k] + z
        b[k] = s_prev - s
        s = s_prev
    if any(b[k] < inv[k] for k in range(1, r + 1)):
        return None
    arms = [1 + a, 1 + sum(b[1:], Fraction(0)) + z]
    tail = Fraction(0)
    for k in range(r, 0, -1):
        top = inv[k - 1] + inv[k] + max(3 * inv[k] - b[k], inv[k]) + tail + z
        arms.append(top / inv[k - 1])
        tail += b[k]
    return min(arms)


def check_bounds_rows(csv_text, r):
    """Rows of ``bounds --out``: each row's bound is recomputed, and at least
    one row certifies the full 1 + a. Returns the problems found and the
    largest a the rows call feasible."""
    lines = csv_text.strip().splitlines()
    if not lines or lines[0] != "r,n,k_c,a,bound,feasible":
        return ["bounds CSV has no header"], None
    problems, best, certified = [], None, False
    for line in lines[1:]:
        rr, n, k_c, a, bound, feasible = line.split(",")
        rr, n, k_c, a = int(rr), int(n), int(k_c), Fraction(a)
        if feasible == "true" and (best is None or a > best):
            best = a
        if rr != r or n != 2 * r + 1 + k_c:
            problems.append(f"row {line!r} has the wrong shape")
            continue
        mine = chain_bound(a, r, k_c)
        if (mine is not None) != (feasible == "true"):
            problems.append(f"row {line!r}: feasibility disagrees")
        elif mine is not None and Fraction(bound) != mine:
            problems.append(f"row {line!r}: bound should be {mine}")
        certified = certified or mine == 1 + a
    if not certified:
        problems.append("no row certifies 1 + a")
    return problems, best


# -- optimal makespan --------------------------------------------------------


def brute_force_opt(inst):
    """Lexicographically smallest owner vector of least makespan.

    For finite standard-part instances only. Costs are scaled to integers by
    their common denominator; the jobs are split in two halves whose load
    vectors are enumerated in owner order, so the first pair found with the
    least makespan is the lexicographically smallest. A pair is skipped only
    when one half alone already reaches the best makespan found.
    """
    cells = [[inst.cost(i, j) for j in range(1, inst.m + 1)] for i in range(1, inst.n + 1)]
    if any(tiered.is_inf(c) or set(c) - {0} for row in cells for c in row):
        raise ValueError("brute force needs finite standard-part costs")
    vals = [[c.get(0, Fraction(0)) for c in row] for row in cells]
    den = lcm(*(q.denominator for row in vals for q in row))
    ints = [[int(q * den) for q in row] for row in vals]
    half = inst.m // 2

    def halves(jobs):
        out = [((), (0,) * inst.n)]
        for j in jobs:
            nxt = []
            for owner, loads in out:
                for p in range(inst.n):
                    grown = list(loads)
                    grown[p] += ints[p][j]
                    nxt.append((owner + (p + 1,), tuple(grown)))
            out = nxt
        return [(owner, loads, max(loads)) for owner, loads in out]

    best, arg = None, None
    right = halves(range(half, inst.m))
    for owner_l, loads_l, max_l in halves(range(half)):
        if best is not None and max_l >= best:
            continue
        for owner_r, loads_r, max_r in right:
            if best is not None and max_r >= best:
                continue
            ms = max(x + y for x, y in zip(loads_l, loads_r))
            if best is None or ms < best:
                best, arg = ms, owner_l + owner_r
    return Fraction(best, den), list(arg)


def minwork_owner(inst):
    """Each job to its cheapest finite player; ties to the lowest index."""
    owner = []
    for j in range(1, inst.m + 1):
        best = None
        for i in range(1, inst.n + 1):
            c = inst.cost(i, j)
            if tiered.is_inf(c):
                continue
            if best is None or tiered.compare(c, inst.cost(best, j)) < 0:
                best = i
        if best is None:
            raise ValueError(f"job {j} has no finite-cost player")
        owner.append(best)
    return owner
