import json
import sys
from dataclasses import replace
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from mechdock.adversary import attack, replay_report, verify_report
from mechdock.adversary.blocks import block_chain
from mechdock.adversary.engine import run
from mechdock.adversary.small import square2, square3, square4
from mechdock.adversary.verdicts import (
    RatioWitness,
    StrategyIncomplete,
    Unbounded,
    verdict_from_json_dict,
    verify_verdict,
)
from mechdock.exactnum import INF, ZERO, leading_ratio, tv
from mechdock.forge import ForgeError, MainParams, certified_bound, check_writable, d2x2
from mechdock.mechlib import SeededStub, make_mechanism, minwork_allocate
from mechdock.schedmodel import Allocation, MechanismHandle, makespan
from mechdock.wmon import _l1, _l4

RHO_B = Fraction(22055, 10000)
RHO_C = Fraction(26589, 10000)
SQRT2 = Fraction(141421, 100000)
A_R3 = Fraction(1873, 1000)


def _assert_sound(verdict):
    assert not isinstance(verdict, StrategyIncomplete), verdict
    assert verify_verdict(verdict) == []


def test_2x2_minwork_exact_ratio_two():
    verdict, transcript = run(square2, make_mechanism("minwork"))
    _assert_sound(verdict)
    assert isinstance(verdict, RatioWitness)
    assert verdict.claimed_bound == 2
    ratio = leading_ratio(
        makespan(verdict.instance, verdict.mech_alloc),
        makespan(verdict.instance, verdict.certificate),
    )
    assert ratio == Fraction(2)


def test_2x2_dictator_unbounded():
    verdict, _ = run(square2, make_mechanism("dictator:2"))
    _assert_sound(verdict)
    assert isinstance(verdict, Unbounded)


def test_3x3_minwork_case_three_two():
    verdict, _ = run(square3, make_mechanism("minwork"), 1, RHO_B, RHO_C)
    _assert_sound(verdict)
    assert isinstance(verdict, RatioWitness)
    assert verdict.claimed_bound == (1 + RHO_B + RHO_C) / RHO_C
    assert float(verdict.claimed_bound) >= 2.2054


def test_3x3_integer_parameters():
    verdict, _ = run(square3, make_mechanism("minwork"), 1, 2, 3)
    _assert_sound(verdict)
    assert isinstance(verdict, RatioWitness)
    assert verdict.claimed_bound == Fraction(2)  # (1+2+3)/3


def test_3x3_dictator3():
    verdict, _ = run(square3, make_mechanism("dictator:3"), 1, RHO_B, RHO_C)
    _assert_sound(verdict)


def test_3x4_minwork_sqrt2_bound():
    verdict, transcript = run(square4, make_mechanism("minwork"), SQRT2)
    _assert_sound(verdict)
    assert isinstance(verdict, RatioWitness)
    assert verdict.claimed_bound == (2 + SQRT2) / SQRT2
    assert float(verdict.claimed_bound) >= 2.41420


def test_3x4_formula_point():
    verdict, _ = run(square4, make_mechanism("minwork"), 2)
    _assert_sound(verdict)
    assert verdict.claimed_bound == Fraction(2)  # min(1+2, (2+2)/2)


def test_main_minwork_reference_point():
    verdict, transcript = run(block_chain, make_mechanism("minwork"), A_R3, 3, 3)
    _assert_sound(verdict)
    assert isinstance(verdict, RatioWitness)
    assert verdict.claimed_bound == 1 + Fraction(1873, 1000)
    assert len(transcript) < 200


def test_main_dictator_unbounded():
    verdict, _ = run(block_chain, make_mechanism("dictator:1"), A_R3, 3, 3)
    _assert_sound(verdict)
    assert isinstance(verdict, Unbounded)
    assert verdict.reason == "infinite-assignment"


def test_main_warmup_single_block():
    mech = make_mechanism("minwork")
    verdict, _ = run(block_chain, mech, Fraction(18019, 10000), 1, 40)
    _assert_sound(verdict)
    assert isinstance(verdict, RatioWitness)
    assert float(verdict.claimed_bound) >= 1 + 1.8019 - 1e-3


def test_main_optmakespan_small():
    mech = make_mechanism("optmakespan")
    verdict, _ = run(block_chain, mech, Fraction(17, 10), 1, 1)
    _assert_sound(verdict)


def _premise_fails(s):
    # dictator:2 holds job 1 for player 2, so L1's premise fails at step 2
    s.bootstrap(d2x2(), "two-player square")
    s.apply([(1, 1, ZERO)], "zero player 1's job 1", _l1(1, f1=[1]))


def test_failed_lemma_premise_ends_as_strategy_incomplete():
    verdict, transcript = run(_premise_fails, make_mechanism("dictator:2"))
    assert isinstance(verdict, StrategyIncomplete)
    assert verdict.step == 2 == len(transcript)
    assert verdict.diagnostic == "lemma premise fails: L1: job 1 in F1 is not held"
    assert "expectation" not in transcript[-1]


def _raise_a_missing_dummy(s):
    s.bootstrap(d2x2(), "two-player square")
    s.raise_dummy(1, [1], tv(1), "raise a dummy player 1 lacks")


def _price_out_a_held_job(s):
    s.bootstrap(d2x2(), "two-player square")
    s.price_out(1, [1], "price player 1 out of a held job")


def _price_out_an_infinite_cost_again(s):
    s.bootstrap(d2x2(), "two-player square")
    s.price_out(2, [2], "price player 2 out of job 2")
    s.price_out(2, [2], "price player 2 out of job 2 again")


def _squeeze_an_infinite_cost(s):
    s.bootstrap(d2x2(), "two-player square")
    s.price_out(2, [2], "price player 2 out of job 2")
    s.squeeze(2, [], [2], "raise player 2's infinite job 2")


def _lower_a_zero_cost_below_zero(s):
    # player 1 holds both jobs; raising the derived dummy lowers the zeroed
    # job 1 by EPS4, below zero
    s.bootstrap(d2x2(), "two-player square")
    s.price_out(2, [2], "price player 2 out of job 2")
    s.squeeze(1, [1], [], "zero player 1's job 1")
    s.raise_dummy(1, [1, 2], tv(1), "raise the fresh dummy to one")


def _undercut_an_unheld_job(s):
    s.bootstrap(d2x2(), "two-player square")
    s.undercut(2, 1, 2, "undercut player 2 on a job player 1 holds")


def _raise_a_derived_dummy(s):
    # no map is declared: pricing player 2 out of job 2 leaves it player
    # 1's dummy, so both steps pass and only the missing verdict remains
    s.bootstrap(d2x2(), "two-player square")
    s.price_out(2, [1, 2], "price player 2 out of both jobs")
    s.raise_dummy(1, [1, 2], tv(1), "raise the fresh dummy to one")


def _only_bootstrap(s):
    s.bootstrap(d2x2(), "two-player square")


def _break_a_prediction_on_a_monotone_pair(s):
    # L1's forbidden job 1 stays away from player 2, but the added one-of
    # on job 2 fails; raising a job the player does not get is monotone.
    s.bootstrap(d2x2(), "two-player square")
    lemma = replace(_l1(2, f2=[1]), one_of=((2,),))
    s.apply([(2, 1, 2)], "raise player 2's job 1", lemma)


def _break_a_prediction_on_an_unevaluable_pair(s):
    # Job 2 moves off player 1 as its cost becomes infinite, so the pair's
    # monotonicity sum has a term mixing an infinite and a finite cost.
    s.bootstrap(d2x2(), "two-player square")
    lemma = replace(_l4(1, j1=1, j2=2), one_of=((2,),))
    edits = [(1, 1, Fraction(1, 2)), (1, 2, INF)]
    s.apply(edits, "lower job 1, price out job 2", lemma)


@pytest.mark.parametrize(
    "script, step, diagnostic",
    [
        (
            _raise_a_missing_dummy,
            2,
            "lemma premise fails: L3: player has no dummy job",
        ),
        (_price_out_a_held_job, 2, "lemma premise fails: L1: job 1 in F2 is held"),
        (
            _price_out_an_infinite_cost_again,
            3,
            "lemma premise fails: L1: job 2 in F2 is not strictly raised",
        ),
        (
            _squeeze_an_infinite_cost,
            3,
            "lemma premise fails: L1: job 2 in F2 is not strictly raised",
        ),
        (
            _lower_a_zero_cost_below_zero,
            3,
            "edit fails: negative cost at player 1, job 1",
        ),
        (_undercut_an_unheld_job, 2, "lemma premise fails: L2: job j is not held"),
        (_raise_a_derived_dummy, 3, "strategy script ended without a verdict"),
        (_only_bootstrap, 1, "strategy script ended without a verdict"),
        (
            _break_a_prediction_on_a_monotone_pair,
            2,
            "player 2 was predicted to get one of [2] yet the pair is weakly "
            "monotone",
        ),
        (
            _break_a_prediction_on_an_unevaluable_pair,
            2,
            "prediction failed but the pair is unevaluable: mixed infinite/finite "
            "term with flipped assignment at job 2",
        ),
    ],
)
def test_engine_failure_paths_end_as_strategy_incomplete(script, step, diagnostic):
    verdict, transcript = run(script, make_mechanism("minwork"))
    assert verdict == StrategyIncomplete(step=step, diagnostic=diagnostic)
    assert len(transcript) == step


def test_strategy_incomplete_round_trips_through_json():
    verdict, _ = run(_premise_fails, make_mechanism("dictator:2"))
    d = verdict.to_json_dict()
    assert d == {
        "kind": "StrategyIncomplete",
        "step": 2,
        "diagnostic": "lemma premise fails: L1: job 1 in F1 is not held",
    }
    back = verdict_from_json_dict(json.loads(json.dumps(d)))
    assert back == verdict
    assert verify_verdict(back) == []


@pytest.mark.parametrize("seed", range(60))
def test_2x2_stub_sweep_small(seed):
    verdict, _ = run(square2, SeededStub(seed))
    _assert_sound(verdict)
    verdict, _ = run(square2, SeededStub(seed, active_only=True))
    _assert_sound(verdict)


def test_small_strategy_stub_sweeps():
    for seed in range(300):
        for stub in (SeededStub(seed), SeededStub(seed, active_only=True)):
            v, _ = run(square3, stub, 1, RHO_B, RHO_C)
            _assert_sound(v)
            v, _ = run(square4, stub, SQRT2)
            _assert_sound(v)


def test_main_stub_sweep():
    for seed in range(150):
        for stub in (SeededStub(seed), SeededStub(seed, active_only=True)):
            v, _ = run(block_chain, stub, Fraction(9, 5), 2, 2)
            _assert_sound(v)


def test_verdict_json_roundtrip_and_tamper_detection():
    verdict, _ = run(square2, make_mechanism("minwork"))
    d = verdict.to_json_dict()
    back = verdict_from_json_dict(json.loads(json.dumps(d)))
    assert verify_verdict(back) == []
    tampered = dict(d)
    tampered["claimed_bound"] = str(Fraction(d["claimed_bound"]) + 1)
    assert verify_verdict(verdict_from_json_dict(tampered))
    tampered = dict(d)
    bad_cert = dict(d["certificate"])
    bad_cert["owner"] = [0] * len(bad_cert["owner"])
    tampered["certificate"] = bad_cert
    assert verify_verdict(verdict_from_json_dict(tampered))


def test_attack_report_and_replay():
    report = attack("s3x3", make_mechanism("minwork"))
    assert verify_report(report.to_json_dict()) == []
    assert replay_report(report.to_json_dict(), make_mechanism) == []
    # a doctored bound must fail verification
    doctored = report.to_json_dict()
    doctored["verdict"]["claimed_bound"] = "4"
    assert verify_report(doctored)


def test_a_stored_row_that_is_not_a_list_makes_a_malformed_report():
    doc = attack("s2x2", make_mechanism("minwork")).to_json_dict()
    costs = doc["verdict"]["instance"]["costs"]
    costs[0] = "".join(costs[0])  # a string row used to load by character
    assert verify_report(doc) == [
        "malformed report: row 1 of the cost matrix is not a list"
    ]


def test_attack_main_params_threading():
    report = attack(
        "main", make_mechanism("minwork"), {"a": Fraction(1873, 1000), "r": 3}
    )
    assert report.params["kc"] == 3
    assert verify_report(report.to_json_dict()) == []
    assert replay_report(report.to_json_dict(), make_mechanism) == []


class _Concede(MechanismHandle):
    """Gives player 1 every job it can do but a dummy, the rest by
    min-work, so the block chain ends in its terminal concession and claims
    the certified bound, whose arms are its longest numbers."""

    name = "concede"

    def query(self, T):
        dummies = set(T.dummy_of.values())
        owner = minwork_allocate(T).owner
        return Allocation(
            1 if j not in dummies and T.cost(1, j).finite else o
            for j, o in zip(T.jobs(), owner)
        )


# At the smallest limit the interpreter accepts, the longest chain the size
# check lets through at each a (the next one is refused).
@pytest.mark.parametrize(
    "a, r", [(Fraction(1999, 1000), 96), (Fraction(143, 100), 142)]
)
def test_the_longest_writable_chain_writes_verifies_and_replays(a, r):
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ForgeError, match="past 640 digits"):
            check_writable(a, r + 1, r + 1)
        report = attack("main", _Concede(), {"a": a, "r": r})
        assert report.verdict.claimed_bound == certified_bound(MainParams(a, r, r))
        stored = json.loads(report.to_json())
        assert verify_report(stored) == []
        assert replay_report(stored, lambda selector: _Concede()) == []
    finally:
        sys.set_int_max_str_digits(default)


# At the limit 640, 10^640 has 2,127 bits, so the small constructions take
# parameters whose max(|numerator|, denominator) have 2,118 bits in all and
# refuse 2,119. The claims b/a = 2^1410 and 1 + x are the largest numbers.
SMALL_AT_THE_LIMIT = [
    ("s3x3", "3x3", {"a": Fraction(1, 2**705), "b": 2**705, "c": 2**705 + 1}, "c"),
    ("s3x4", "3x4", {"x": 2**2117 + 1}, "x"),
]
EVERY_BUILTIN = ["minwork", "optmakespan", "dictator:1", "dictator:2", "dictator:3"]
EVERY_BUILTIN += [f"stub:{seed}" for seed in range(8)]
EVERY_BUILTIN += [f"activestub:{seed}" for seed in range(8)]


@pytest.mark.parametrize("strategy, name, params, grown", SMALL_AT_THE_LIMIT)
def test_a_small_construction_just_inside_the_limit_writes_verifies_and_replays(
    strategy, name, params, grown
):
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        kinds = set()
        for selector in EVERY_BUILTIN:
            report = attack(strategy, make_mechanism(selector), params)
            kinds.add(report.verdict.kind)
            stored = json.loads(report.to_json())
            assert verify_report(stored) == []
            assert replay_report(stored, make_mechanism) == []
        assert {"RatioWitness", "Unbounded", "WmonViolation"} <= kinds
        past = {**params, grown: 2 * params[grown]}
        message = f"^{name} construction writes integers past 640 digits"
        with pytest.raises(ForgeError, match=message):
            attack(strategy, make_mechanism("minwork"), past)
    finally:
        sys.set_int_max_str_digits(default)


def test_replay_detects_mechanism_mismatch():
    report = attack("s2x2", make_mechanism("minwork")).to_json_dict()
    report["mechanism"] = "dictator:2"
    assert replay_report(report, make_mechanism)


def _tampers(stored):
    """(label, path, value) edits of a stored s2x2 report."""
    step = stored["transcript"][0]
    at = step["owner"].index(1)
    for label, value in (("true", True), ("1.0", 1.0), ("2", 2)):
        owner = list(step["owner"])
        owner[at] = value
        yield f"step owner 1 -> {label}", ("transcript", 0, "owner"), owner
    owner = list(stored["verdict"]["mech_allocation"]["owner"])
    owner[owner.index(1)] = True
    yield "verdict owner 1 -> true", ("verdict", "mech_allocation", "owner"), owner
    yield "params key order", ("params",), dict(reversed(stored["params"].items()))
    yield "keys in reverse", (), dict(reversed(stored.items()))
    dropped = dict(stored["verdict"])
    del dropped["claimed_bound"]
    yield "dropped key", ("verdict",), dropped
    yield "added key", ("verdict",), {**stored["verdict"], "extra": 0}
    instance = stored["verdict"]["instance"]
    costs = [list(row) for row in instance["costs"]]
    costs[0][0] = " " + costs[0][0]
    yield "cell text", ("verdict", "instance", "costs"), costs
    # the instance is [["1-1e4", "1"], ["1+1e4", "inf"]] with dummy_of {"1": 2}
    for label, row in (("inf as null", ["1+1e4", None]), ("inf moved", ["inf", "1+1e4"])):
        yield label, ("verdict", "instance", "costs", 1), row
    yield "extra row", ("verdict", "instance", "costs"), instance["costs"] + [["1", "1"]]
    yield "ragged row", ("verdict", "instance", "costs", 0), ["1-1e4"]
    yield "n as float", ("verdict", "instance", "n"), 2.0
    yield "dummy job as float", ("verdict", "instance", "dummy_of"), {"1": 2.0}
    yield "extra dummy", ("verdict", "instance", "dummy_of"), {"1": 2, "2": 1}
    yield "instance key added", ("verdict", "instance"), {**instance, "extra": 0}
    undummied = {k: v for k, v in instance.items() if k != "dummy_of"}
    yield "instance key dropped", ("verdict", "instance"), undummied
    yield "queries as text", ("queries",), str(stored["queries"])
    # a bool or a float equal to the int the fresh report writes
    yield "queries as float", ("queries",), float(stored["queries"])
    edits = [list(edit) for edit in stored["transcript"][2]["edits"]]
    edits[0][0] = float(edits[0][0])  # player 1
    yield "edit player as float", ("transcript", 2, "edits"), edits
    for label, value in (("float", 2.0), ("true", True)):
        dummy_of = {"1": value}
        yield f"step dummy job as {label}", ("transcript", 1, "dummy_of"), dummy_of


def _edited(tree, path, value):
    if not path:
        return value
    copy = dict(tree) if isinstance(tree, dict) else list(tree)
    copy[path[0]] = _edited(tree[path[0]], path[1:], value)
    return copy


def test_replay_fails_exactly_when_the_sorted_text_differs():
    stored = json.loads(attack("s2x2", make_mechanism("minwork")).to_json())
    assert replay_report(stored, make_mechanism) == []
    text = json.dumps(stored, sort_keys=True)
    for label, path, value in _tampers(stored):
        tampered = _edited(stored, path, value)
        differs = json.dumps(tampered, sort_keys=True) != text
        assert differs == (label not in ("params key order", "keys in reverse"))
        assert bool(replay_report(tampered, make_mechanism)) == differs, label


def test_replay_fails_on_a_violation_player_stored_as_a_bool_or_float():
    stored = json.loads(attack("s2x2", make_mechanism("stub:1")).to_json())
    assert stored["verdict"]["kind"] == "WmonViolation"
    assert replay_report(stored, make_mechanism) == []
    text = json.dumps(stored, sort_keys=True)
    for value in (True, 2.0, 2):
        tampered = _edited(stored, ("verdict", "player"), value)
        differs = json.dumps(tampered, sort_keys=True) != text
        assert differs == (type(value) is not int)
        assert bool(replay_report(tampered, make_mechanism)) == differs, value


@pytest.mark.parametrize("key", ["note", "owner"])
def test_replay_of_a_step_nested_past_the_recursion_limit_is_a_defect(key):
    # == against the shallow fresh tree ends at the first nested level
    stored = json.loads(attack("s2x2", make_mechanism("minwork")).to_json())
    nested = []
    for _ in range(10 * sys.getrecursionlimit()):
        nested = [nested]
    step = {**stored["transcript"][0], key: [nested, 1] if key == "owner" else nested}
    tampered = {**stored, "transcript": [step, *stored["transcript"][1:]]}
    assert replay_report(tampered, make_mechanism) == [
        "replay produced a different report"
    ]


def test_unsound_claim_ends_incomplete_with_the_verdict_check_text():
    # The certificate is the mechanism's own answer, so the leading ratio
    # is 1; a script claiming 3 must not get a RatioWitness out.
    def overclaim(s):
        s.bootstrap(d2x2(), "start")
        s.finish_ratio(s.x, Fraction(3))

    verdict, transcript = run(overclaim, make_mechanism("minwork"))
    assert isinstance(verdict, StrategyIncomplete)
    assert verdict.step == len(transcript) == 1
    claimed = RatioWitness(
        instance=d2x2(),
        mech_alloc=Allocation([1, 1]),
        certificate=Allocation([1, 1]),
        claimed_bound=Fraction(3),
    )
    defects = verify_verdict(claimed)
    assert defects == ["claimed bound 3 not met: leading ratio 1"]
    assert defects[0] in verdict.diagnostic


def _same_json_dense(fresh, stored):
    """The comparison replay once made by walking the dense to_json_dict
    tree, node type by node type, kept as the oracle of replay's compare."""
    kind = type(fresh)
    if kind is not type(stored):
        return False
    if kind is dict:
        return fresh.keys() == stored.keys() and all(
            _same_json_dense(value, stored[key]) for key, value in fresh.items()
        )
    if kind is list:
        if len(fresh) != len(stored):
            return False
        try:
            "".join(fresh)
        except TypeError:
            if set(map(type, fresh)) == {int}:
                return fresh == stored and set(map(type, stored)) == {int}
            return all(map(_same_json_dense, fresh, stored))
        return fresh == stored
    return fresh == stored


# The stored reports mutated below: a 2x2 witness, a 2x2 violation pair
# (stub:1) and a chain at two sizes.
_REPLAYED = {
    "s2x2": ("s2x2", {}, "minwork"),
    "s2x2 violation": ("s2x2", {}, "stub:1"),
    "main r=3": ("main", {"a": A_R3, "r": 3}, "minwork"),
    "main r=10": ("main", {"a": Fraction(1966, 1000), "r": 10}, "minwork"),
}


@cache
def _replayed_report(label):
    strategy, params, selector = _REPLAYED[label]
    report = attack(strategy, make_mechanism(selector), params)
    return report, json.loads(report.to_json())


# What a stored int, a cell or a row may be swapped for.
_NOT_INTS = st.sampled_from([str, bool, float])
_CELL_SWAPS = st.sampled_from(["0", "1", "1e1", " 0", "inf", 0, 1, True, 1.0, None])


def _cell(draw, costs):
    """A drawn (row, position) of a stored matrix as it stands."""
    i = draw(st.integers(0, len(costs) - 1))
    return i, draw(st.integers(0, max(len(costs[i]) - 1, 0)))


@st.composite
def _instance_mutations(draw, inst):
    """Edits of a stored instance dict, in place, from its cells, "inf"
    runs, plain ints, rows and keys."""
    costs, m = inst["costs"], inst["m"]
    finite = [t for row in costs for t in row if t != "inf"]
    kinds = ["cell", "swap", "int", "cell type", "extra row", "ragged", "key"]
    kinds += ["dummy key"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=3)):
        i, j = _cell(draw, costs)
        if not costs[i]:
            costs[i].append("inf")
        if kind == "cell":
            text = draw(st.sampled_from(finite + ["inf"]))
            costs[i][j] = draw(st.sampled_from([text, " " + text, text + "0"]))
        elif kind == "swap":  # an "inf" and a finite cell, maybe in two rows
            k, l = _cell(draw, costs)
            if costs[k]:
                costs[i][j], costs[k][l] = costs[k][l], costs[i][j]
        elif kind == "int":
            dummy_of = inst.get("dummy_of")
            holders = [(inst, "n"), (inst, "m")]
            if type(dummy_of) is dict:
                holders += [(dummy_of, p) for p in dummy_of]
            holder, key = draw(st.sampled_from(holders))
            if key in holder:
                holder[key] = draw(_NOT_INTS)(holder[key])
        elif kind == "cell type":
            costs[i][j] = draw(_CELL_SWAPS)
        elif kind == "dummy key":  # one added, renamed or dropped
            dummy_of = inst.get("dummy_of")
            if type(dummy_of) is dict and dummy_of:
                p = draw(st.sampled_from(sorted(dummy_of)))
                change = draw(st.sampled_from(["add", "rename", "drop"]))
                value = dummy_of[p] if change == "add" else dummy_of.pop(p)
                if change != "drop":
                    dummy_of[str(len(costs) + 1) if change == "add" else "0" + p] = value
        elif kind == "extra row":
            costs.append(list(costs[i]))
        elif kind == "ragged":
            if draw(st.booleans()):
                costs[i].append("inf")
            else:
                del costs[i][j]
        else:
            key = draw(st.sampled_from(["extra", "dummy_of", "n"]))
            if key in inst and draw(st.booleans()):
                del inst[key]
            else:
                inst[key] = draw(st.sampled_from([{}, {"1": m}, 0]))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_REPLAYED)), st.data())
def test_replay_reads_instances_as_the_dense_comparison_does(label, data):
    report, stored = _replayed_report(label)
    mutated = json.loads(json.dumps(stored))
    verdict = mutated["verdict"]
    keys = [k for k in ("instance", "T", "Tprime") if k in verdict]
    data.draw(_instance_mutations(verdict[data.draw(st.sampled_from(keys))]))
    expected = _same_json_dense(report.to_json_dict(), mutated)
    assert (replay_report(mutated, make_mechanism) == []) == expected
