"""The block-chain adversary: r three-job blocks, a geometric chain, dummies.

The walk mirrors the construction's case analysis. While some block's
first job escapes player 1, earlier winnings are zeroed, the offending
block is transitioned in two steps, and the loop advances (at most r
times). Once player 1 holds every non-trivial block job, the chain is
walked; any defection there, or at a block, is converted into a scripted
certificate worth 1 + a (or 3). If the mechanism concedes everything,
player 1's dummy is raised to the certificate makespan and the certified
parameter bound is claimed. The steps are the engine's Session moves;
only the transition's second step, which writes target values rather
than offsets from a held cost, spells out its edits.
"""

from __future__ import annotations

from fractions import Fraction

from ..forge import certified_bound, main_chain, transition_second_cost
from ..schedmodel import Allocation
from ..wmon import _l2


def block_chain(s, a, r, kc):
    """The block-chain strategy, started from the chain forge.main_chain
    keeps: repeated attacks of one (a, r, kc), and the replay of one,
    bootstrap from the same instance."""
    p, T = main_chain(a, r, kc)
    s.bootstrap(T, f"block chain r={p.r} k_c={p.k_c}")
    transitioned = {}
    i_prev = 0
    for _ in range(p.r + 1):
        i1 = _first_block_deviation(s, p, i_prev)
        if i1 is None:
            t = _first_chain_deviation(s, p)
            if t is None:
                _terminal_concession(s, p, transitioned)
            _chain_defection(s, p, t, transitioned)
        _trivialize_up_to(s, p, i1)
        q = s.x.owner_of(p.block_jobs(i1)[0])
        lo, hi = p.block_coplayers(i1)
        # Only player 1 and the co-players price j1 finitely, and player 1
        # lost it (the deviation, or the L1 step pinning it away).
        if q not in (lo, hi):  # pragma: no cover
            s.fail(f"first job of block {i1} held by player {q} after pinning")
        variant = "E1" if q == lo else "E2"
        j1, j2, j3 = p.block_jobs(i1)
        jm = j2 if variant == "E1" else j3
        if not s.x.assigns(q, jm):
            _semi_dummy_defection(s, p, i1, q, jm, transitioned)
        _transition(s, p, i1, q, jm, variant, transitioned)
        i_prev = i1
    s.fail("block loop exceeded its bound")  # pragma: no cover


def _first_block_deviation(s, p, i_prev):
    for i in range(i_prev + 1, p.r + 1):
        if not s.x.assigns(1, p.block_jobs(i)[0]):
            return i
    return None


def _first_chain_deviation(s, p):
    for t in range(1, p.k_c + 1):
        if not s.x.assigns(1, p.chain_job(t)):
            return t
    return None


def _held_nontrivial(s, p):
    """Player 1's current holdings with nonzero cost, dummy excluded."""
    dj = p.dummy_job(1)
    return [
        j
        for j in s.T.jobs()
        if j != dj and s.x.assigns(1, j) and not s.T.cost(1, j).is_zero()
    ]


def _trivialize_up_to(s, p, i1):
    """Zero player 1's winnings below block i1 and pin its first job away."""
    j1 = p.block_jobs(i1)[0]
    cutoff = p.block_jobs(i1 - 1)[2] if i1 > 1 else 0
    zeroed = [j for j in _held_nontrivial(s, p) if j <= cutoff]
    if zeroed:
        s.squeeze(
            1, zeroed, [j1], f"trivialize blocks below {i1}, pin its first job away"
        )


def _reference_cert(s, p, transitioned, overrides=None):
    """The standing no-player-1 certificate: zero-cost jobs stay with player
    1, block jobs go to their co-players (the transitioned split for
    transitioned blocks), chain jobs to their co-players, dummies home."""
    owner = {}
    for q in range(1, p.n + 1):
        owner[p.dummy_job(q)] = q
    for i in range(1, p.r + 1):
        j1, j2, j3 = p.block_jobs(i)
        lo, hi = p.block_coplayers(i)
        if transitioned.get(i) == "E1":
            placement = {j1: hi, j2: lo, j3: hi}
        else:
            placement = {j1: lo, j2: lo, j3: hi}
        for j, q in placement.items():
            owner[j] = 1 if s.T.cost(1, j).is_zero() else q
    for t in range(1, p.k_c + 1):
        j = p.chain_job(t)
        owner[j] = 1 if s.T.cost(1, j).is_zero() else p.chain_coplayer(t)
    for j, q in (overrides or {}).items():
        owner[j] = q
    return Allocation([owner[j] for j in range(1, p.m + 1)])


def _semi_dummy_defection(s, p, i1, q, jm, transitioned):
    """The co-player took the block's first job but not his trivial one."""
    j1 = p.block_jobs(i1)[0]
    s.branch(f"block {i1}: player {q} split the pair")
    s.squeeze(q, [j1], [jm], "zero the co-player's first job, raise his trivial one")
    s.raise_dummy(
        1,
        _held_nontrivial(s, p) + [p.dummy_job(1)],
        p.power[i1],
        "raise player 1's dummy to the certificate makespan",
    )
    cert = _reference_cert(s, p, transitioned, overrides={j1: q, jm: q})
    s.finish_ratio(cert, Fraction(3))


def _transition(s, p, i1, q, jm, variant, transitioned):
    j1 = p.block_jobs(i1)[0]
    other = p.block_coplayers(i1)[1] if variant == "E1" else p.block_coplayers(i1)[0]
    s.branch(f"block {i1}: {variant} against player {q}")
    # step 1: the co-player's trivial job is raised to his first-job price
    s.trade(q, jm, p.power[i1 - 1], j1, f"transition step 1 on block {i1}")
    if s.x.assigns(q, jm):
        s.branch("co-player kept the raised pair")
        s.raise_dummy(
            q,
            [p.dummy_job(q), j1, jm],
            p.companion[i1],
            "raise the co-player's dummy to the certificate makespan",
        )
        cert = _reference_cert(
            s, p, transitioned, overrides={jm: 1, j1: other}
        )
        s.finish_ratio(cert, 1 + p.a)
    s.branch("player 1 took the raised job")
    # step 2: player 1's prices for the pair drop
    c_cost = transition_second_cost(p.power[i1], p.b[i1 - 1])
    first_arm = c_cost != p.power[i1]
    s.apply(
        [(1, j1, p.power[i1]), (1, jm, c_cost)],
        f"transition step 2 on block {i1}",
        _l2(1, j=jm, k=j1),
    )
    has_first = s.x.assigns(1, j1)
    has_mid = s.x.assigns(1, jm)
    if has_first and has_mid:
        s.branch("player 1 absorbed the block")
        transitioned[i1] = variant
        return
    if has_mid:
        _single_keeper(s, p, i1, kept=jm, missing=j1, transitioned=transitioned)
    if has_first and not first_arm:
        _single_keeper(s, p, i1, kept=j1, missing=jm, transitioned=transitioned)
    # L2 leaves player 1 one of the pair, and on the first arm it keeps jm.
    s.fail(  # pragma: no cover
        f"transition step 2 on block {i1} left no predicted holding"
    )


def _single_keeper(s, p, i1, kept, missing, transitioned):
    """Player 1 kept one of the transitioned pair: corner whoever has the
    other and claim 1 + a."""
    s.branch(f"player 1 kept only job {kept}")
    s.squeeze(1, [kept], [missing], "zero the kept job, pin the missing one away")
    w = s.x.owner_of(missing)
    lo, hi = p.block_coplayers(i1)
    # Only player 1 and the co-players price the missing job finitely,
    # and the L1 step forbids it to player 1.
    if w not in (lo, hi):  # pragma: no cover
        s.fail(f"job {missing} held by player {w} after pinning")
    s.raise_dummy(
        w,
        [p.dummy_job(w), missing],
        p.power[i1],
        "raise that co-player's dummy to the certificate makespan",
    )
    cert = _reference_cert(
        s, p, transitioned, overrides={kept: 1, missing: 1}
    )
    s.finish_ratio(cert, 1 + p.a)


def _chain_defection(s, p, t, transitioned):
    """The t-th chain job escaped player 1: corner its co-player."""
    cj = p.chain_job(t)
    co = p.chain_coplayer(t)
    s.branch(f"chain job {t} escaped player 1")
    zeroed = [j for j in _held_nontrivial(s, p) if j != cj]
    s.squeeze(1, zeroed, [cj], "zero player 1's winnings, pin the chain job away")
    # Only player 1 and the co-player price cj finitely, and the L1 step
    # forbids it to player 1.
    if not s.x.assigns(co, cj):  # pragma: no cover
        s.fail(f"chain job {t} not with its co-player after pinning")
    s.raise_dummy(
        co,
        [p.dummy_job(co), cj],
        p.power[p.r + t],
        "raise the chain co-player's dummy",
    )
    cert = _reference_cert(s, p, transitioned, overrides={cj: 1})
    s.finish_ratio(cert, 1 + p.a)


def _terminal_concession(s, p, transitioned):
    """Player 1 holds every non-trivial job: raise his dummy and claim the
    certified parameter bound."""
    k = max(transitioned) if transitioned else 0
    gamma = p.power[k - 1] if k else p.power[0]
    s.branch("player 1 holds all non-trivial jobs")
    s.raise_dummy(
        1,
        _held_nontrivial(s, p) + [p.dummy_job(1)],
        gamma,
        "raise player 1's dummy to the certificate makespan",
    )
    cert = _reference_cert(s, p, transitioned)
    s.finish_ratio(cert, certified_bound(p))
