"""Adversary strategies for the 2x2, 3x3, and 3x4 lower-bound instances.

Each strategy walks a finite case tree: it queries the mechanism, branches
on the answer, edits designated entries, and terminates with a verdict.
The case trees are written in the Session moves of the engine; only
the dominated decrease, which writes target values rather than offsets
from a held cost, spells out its edits.
"""

from __future__ import annotations

from fractions import Fraction

from ..exactnum import EPS1, EPS4, tv
from ..forge import d2x2, e3x3, f3x4
from ..schedmodel import Allocation
from ..wmon import _dd


# -- two players, two jobs -------------------------------------------------


def square2(s):
    """Two machines, two jobs: leading ratio 2 or an unbounded witness."""
    s.bootstrap(d2x2(), "two-player square, job 2 in two epsilon tiers")
    if s.x.assigns(2, 2):
        if s.x.assigns(1, 1):
            s.branch("job 2 stuck with player 2; player 1 keeps job 1")
            s.squeeze(1, [1], [2], "zero player 1's held job, raise his unheld one")
            s.finish_tier_gap(Allocation([1, 1]))
        s.branch("player 2 holds both jobs")
        s.squeeze(2, [1], [2], "lower both of player 2's held jobs")
        s.finish_tier_gap(Allocation([2, 1]))
    if s.x.assigns(1, 1):
        s.branch("player 1 holds both jobs")
        s.price_out(2, [1, 2], "price player 2 out of both jobs")
        s.raise_dummy(1, [1, 2], tv(1), "raise the fresh dummy to one")
        s.finish_ratio(Allocation([2, 1]), Fraction(2))
    s.branch("jobs split against the price order")
    s.undercut(2, 1, 2, "undercut player 2 on both jobs")
    if not s.x.assigns(2, 2):
        s.branch("player 1 kept job 2")
        s.squeeze(2, [1], [2], "zero player 2's held job, raise his unheld one")
        s.finish_tier_gap(Allocation([2, 2]))
    s.branch("player 2 swept both jobs")
    s.price_out(1, [1, 2], "price player 1 out of both jobs")
    s.raise_dummy(2, [1, 2], tv(1), "raise the fresh dummy to one")
    s.finish_ratio(Allocation([1, 2]), Fraction(2))


# -- three players, three jobs ----------------------------------------------


def square3(s, a, b, c):
    """Three machines, three jobs: min(1 + c/b, b/a, (a+b+c)/c) or better."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    s.bootstrap(e3x3(a, b, c), "three-player triangle with a shared cheap job")
    if s.x.assigns(1, 2):
        if s.x.assigns(1, 3):
            s.branch("player 1 holds jobs 2 and 3")
            _finish_pair_on_player1(s, b, c)
        s.branch("player 1 holds job 2, player 3 holds job 3")
        s.undercut(1, 2, 3, "undercut player 1 on jobs 2 and 3")
        if s.x.assigns(1, 3):
            s.branch("player 1 collected job 3 as well")
            _finish_pair_on_player1(s, b, c)
        s.branch("job 3 still with player 3")
        s.squeeze(1, [2], [3], "zero player 1's held job, raise his unheld one")
        if s.x.assigns(2, 1):
            s.branch("player 2 carries job 1")
            s.finish_ratio(Allocation([3, 1, 1]), b / a)
        s.branch("player 3 carries jobs 1 and 3")
        s.squeeze(3, [1], [2, 3], "lower player 3's held jobs, raise his unheld one")
        s.finish_tier_gap(Allocation([3, 1, 1]))
    if s.x.assigns(2, 1) and s.x.assigns(3, 2):
        s.branch("player 2 on job 1, player 3 on job 2")
        _finish_b_over_a(s, a, b)
    if s.x.assigns(3, 1):
        if s.x.assigns(1, 3):
            s.branch("player 3 holds jobs 1 and 2, player 1 the cheap job")
            s.squeeze(
                3, [1, 2], [3], "zero player 3's held jobs, raise his unheld one"
            )
            s.finish_tier_gap(Allocation([3, 3, 3]))
        s.branch("player 3 swept all three jobs")
        s.price_out(
            1, [2, 3], "price player 1 out; the cheap job becomes player 3's dummy"
        )
        if s.x.assigns(2, 1):
            s.branch("player 2 took job 1")
            _finish_b_over_a(s, a, b)
        s.branch("player 3 kept everything")
        s.raise_dummy(
            3, [3, 1, 2], tv(c), "raise player 3's dummy to the certificate makespan"
        )
        s.finish_ratio(Allocation([2, 1, 3]), (a + b + c) / c)
    s.fail("unreachable 3x3 dispatch")  # pragma: no cover


def _finish_pair_on_player1(s, b, c):
    """Player 1 holds jobs 2 and 3: corner him and claim (b + c) / b."""
    s.price_out(3, [3, 2], "price player 3 out; job 3 becomes player 1's dummy")
    s.raise_dummy(
        1, [3, 2], tv(b), "raise player 1's dummy to the certificate makespan"
    )
    s.finish_ratio(Allocation([2, 3, 1]), (b + c) / b)


def _finish_b_over_a(s, a, b):
    """Player 2 holds job 1 while player 3 holds job 2: claim b / a."""
    s.squeeze(3, [2], [1, 3], "zero player 3's shared job, raise his unheld job 1")
    s.finish_ratio(Allocation([3, 3, 3]), b / a)


# -- three players, four jobs -------------------------------------------------


def square4(s, w):
    """Three machines, four jobs: min(1 + w, (2 + w) / w) or better."""
    w = Fraction(w)
    s.bootstrap(f3x4(w), "three-player rectangle with one true dummy")
    if s.x.assigns(1, 2):
        s.branch("player 1 holds the priced job")
        _boost_player1(s, w, Allocation([2, 2, 3, 1]))
    if s.x.assigns(2, 1) and s.x.assigns(2, 2):
        s.branch("player 2 holds jobs 1 and 2")
        s.price_out(3, [2, 1], "price player 3 out of the first two jobs")
        _boost_if_player1_took_job2(s, w, Allocation([3, 2, 2, 1]))
        s.branch("player 2 still holds jobs 1 and 2")
        s.trade(2, 2, tv(1), 1, "raise player 2's cheap job to one")
        if s.x.assigns(1, 2):
            s.branch("player 2 let the raised job go")
            _boost_player1(s, w, Allocation([3, 2, 2, 1]))
        if s.x.assigns(2, 3):
            s.branch("player 2 swept the first three jobs")
            s.squeeze(2, [1, 2], [3], "lower all three of player 2's jobs")
            s.finish_tier_gap(Allocation([2, 2, 3, 1]))
        s.branch("player 3 holds job 3")
        s.apply(
            [
                (2, 1, tv(1) - 2 * EPS1),
                (2, 2, tv(1) - 2 * EPS1),
                (2, 3, EPS4),
            ],
            "undercut player 2 across his row",
            _dd(2, keep={1, 2}),
        )
        if s.x.assigns(2, 3):
            s.branch("player 2 reclaimed job 3")
            s.price_out(
                3, [3, 1], "price player 3 out; job 3 becomes player 2's dummy"
            )
            _boost_if_player1_took_job2(s, w, Allocation([3, 2, 2, 1]))
            s.branch("player 2 kept the first three jobs")
            s.raise_dummy(
                2,
                [3, 1, 2],
                tv(w),
                "raise player 2's dummy to the certificate makespan",
            )
            s.finish_ratio(Allocation([3, 1, 2, 1]), (2 + w) / w)
        s.branch("player 3 kept job 3")
        s.squeeze(2, [1, 2], [3], "zero player 2's held jobs, raise his unheld one")
        s.finish_tier_gap(Allocation([2, 2, 2, 1]))
    if s.x.assigns(2, 1) and s.x.assigns(3, 2):
        s.branch("player 2 on job 1, player 3 on job 2")
        cert_job3 = 2 if s.x.assigns(2, 3) else 3
        s.squeeze(2, [1], [2, 3], "zero player 2's shared job, raise what he lacks")
        s.finish_tier_gap(Allocation([2, 2, cert_job3, 1]))
    if s.x.assigns(3, 1) and s.x.assigns(2, 2):
        s.branch("player 3 on job 1, player 2 on job 2")
        s.undercut(3, 1, 2, "undercut player 3 on the first two jobs")
        _boost_if_player1_took_job2(s, w, Allocation([3, 2, 2, 1]))
        if s.x.assigns(2, 2):
            s.branch("player 2 kept job 2")
            s.squeeze(3, [1], [2, 3], "zero player 3's held job, raise what he lacks")
            s.finish_tier_gap(Allocation([3, 3, 3, 1]))
        s.branch("player 3 collected job 2 as well")
        if s.x.assigns(2, 3):
            s.branch("player 2 holds job 3")
            s.squeeze(
                3, [1, 2], [3], "zero player 3's held jobs, raise his unheld one"
            )
            s.finish_tier_gap(Allocation([3, 3, 3, 1]))
        s.branch("player 3 swept the first three jobs")
        s.price_out(
            2, [1, 2, 3], "price player 2 out; job 3 becomes player 3's dummy"
        )
        _boost_if_player1_took_job2(s, w, Allocation([2, 3, 3, 1]))
        s.branch("player 3 kept job 2")
        s.trade(3, 2, tv(1), 1, "raise player 3's cheap job to one")
        if s.x.assigns(3, 2):
            s.branch("player 3 held on to everything")
            s.raise_dummy(
                3,
                [3, 1, 2],
                tv(w),
                "raise player 3's dummy to the certificate makespan",
            )
            s.finish_ratio(Allocation([2, 1, 3, 1]), (2 + w) / w)
        s.branch("the raised job escaped to player 1")
        _boost_player1(s, w, Allocation([2, 3, 3, 1]))
    if s.x.assigns(3, 1) and s.x.assigns(3, 2):
        s.branch("player 3 holds the first two jobs")
        s.squeeze(3, [1], [2, 3], "lower player 3's held jobs")
        s.finish_tier_gap(Allocation([3, 2, 3, 1]))
    s.fail("unreachable 3x4 dispatch")  # pragma: no cover


def _boost_player1(s, w, certificate):
    """Player 1 holds the priced job: boost his dummy and claim 1 + w."""
    s.raise_dummy(1, [4, 2], tv(1), "raise player 1's dummy to one")
    s.finish_ratio(certificate, 1 + w)


def _boost_if_player1_took_job2(s, w, certificate):
    """After an edit: if player 1 now holds the priced job, claim 1 + w."""
    if s.x.assigns(1, 2):
        s.branch("the priced job moved to player 1")
        _boost_player1(s, w, certificate)
