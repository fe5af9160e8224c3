"""The built block chain forge.main_chain keeps per (a, r, k_c): a report is
the same from a cleared cache and a warm one, attacks and a replay of one
chain share its instance and rendered prices, and the integer text limit
and the feasibility check hold on every call."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mechdock import forge
from mechdock.adversary import attack, replay_report
from mechdock.forge import CHAIN_CACHE_SIZE, FeasibilityError, ForgeError
from mechdock.mechlib import make_mechanism
from mechdock.schedmodel import Instance, MechanismHandle

built = forge._built_chain


def _report(params, selector):
    """The report's bytes, or the error the chain raised."""
    try:
        return attack("main", make_mechanism(selector), params).to_json()
    except ForgeError as exc:
        return type(exc).__name__, str(exc)


_chains = st.tuples(
    st.integers(1415, 1999).map(lambda n: Fraction(n, 1000)),
    st.integers(1, 6),
    st.integers(0, 6),
)
_selectors = st.sampled_from(["minwork", "dictator", "stub", "activestub"]).flatmap(
    lambda kind: st.just(kind)
    if kind == "minwork"
    else st.integers(1, 3 if kind == "dictator" else 999).map(lambda k: f"{kind}:{k}")
)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(_chains, _selectors),
        min_size=CHAIN_CACHE_SIZE + 2,
        max_size=CHAIN_CACHE_SIZE + 4,
        unique_by=lambda run: run[0],
    )
)
def test_a_report_is_the_same_from_a_cleared_cache_and_a_warm_one(runs):
    runs = [({"a": a, "r": r, "kc": kc}, selector) for (a, r, kc), selector in runs]
    cold = []
    for params, selector in runs:
        built.cache_clear()
        cold.append(_report(params, selector))
    # more chains than the cache keeps, then back: the way back starts on
    # the chains still kept and ends on ones rebuilt after their eviction
    built.cache_clear()
    order = list(range(len(runs))) + list(reversed(range(len(runs))))
    for k in order:
        assert _report(*runs[k]) == cold[k]
    info = built.cache_info()
    assert info.hits >= 1 and info.currsize <= CHAIN_CACHE_SIZE


class _Recorded(MechanismHandle):
    """Min-work, recording the instance of every bootstrap query."""

    name = "minwork"

    def __init__(self, firsts):
        self.firsts = firsts
        self.mech = make_mechanism("minwork")

    def query(self, T):
        if not self.firsts or self.firsts[-1][0] is not self:
            self.firsts.append((self, T))
        return self.mech.query(T)


def test_attacks_and_a_replay_of_one_chain_share_its_instance_and_texts(monkeypatch):
    params = {"a": Fraction(1966, 1000), "r": 10}
    firsts = []
    built.cache_clear()
    attack("main", _Recorded(firsts), params)
    stored = json.loads(attack("main", _Recorded(firsts), params).to_json())
    base = firsts[0][1]
    prices = {id(c) for j in base.jobs() for _, c in base.finite_costs(j)}
    found = []
    to_json_dict = Instance.to_json_dict

    def checked(T):
        # the replay's verdict instance, before it is rendered: every cell it
        # shares with the chain was rendered by the attack's report
        cells = [c for j in T.jobs() for _, c in T.finite_costs(j) if id(c) in prices]
        found.append([hasattr(c, "_text") for c in cells])
        return to_json_dict(T)

    monkeypatch.setattr(Instance, "to_json_dict", checked)
    assert replay_report(stored, lambda selector: _Recorded(firsts)) == []
    assert len(firsts) == 3
    assert all(T is base for _, T in firsts)
    [rendered] = found
    assert len(rendered) > 50 and all(rendered)


def test_one_minwork_handle_answers_repeated_attacks_as_a_fresh_one():
    # the same chain twice, around a chain of the same shape at another a,
    # none of whose columns min-work's last answer shares
    a, b = Fraction(1966, 1000), Fraction(1960, 1000)
    fresh = {
        x: attack("main", make_mechanism("minwork"), {"a": x, "r": 10}).to_json()
        for x in (a, b)
    }
    mech = make_mechanism("minwork")
    for x in (a, b, a):
        assert attack("main", mech, {"a": x, "r": 10}).to_json() == fresh[x]


def test_a_kept_chain_is_refused_under_a_lower_integer_text_limit():
    # r = 96 is the longest chain the smallest limit lets through at this a
    a, r = Fraction(1999, 1000), 97
    built.cache_clear()
    forge.build_an(a, r, r)
    forge.build_an(a, r, r)
    assert built.cache_info().hits == 1
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ForgeError, match="past 640 digits"):
            forge.build_an(a, r, r)
        with pytest.raises(ForgeError, match="past 640 digits"):
            attack("main", make_mechanism("minwork"), {"a": a, "r": r})
    finally:
        sys.set_int_max_str_digits(default)
    # refused before the cache was looked in, and still kept
    assert built.cache_info().hits == 1
    assert forge.build_an(a, r, r) is forge.build_an(a, r, r)


def test_an_infeasible_chain_is_never_kept():
    # without a chain the last block price falls below its floor a^-3
    a = Fraction(9, 5)
    built.cache_clear()
    for _ in range(3):
        with pytest.raises(FeasibilityError):
            forge.main_chain(a, 3, 0)
        with pytest.raises(FeasibilityError):
            attack("main", make_mechanism("minwork"), {"a": a, "r": 3, "kc": 0})
    info = built.cache_info()
    assert (info.currsize, info.hits, info.misses) == (0, 0, 6)
