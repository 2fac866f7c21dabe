"""Sampling harness: bound checking, skip reasons, reproducibility.

The one guaranteed way to see the violation path is to feed the checker
denotations computed with reactive testing of distribution arguments
switched off — that mode is deliberately unsound for operators that test
their argument's behaviour, and the checker must catch it.
"""

import random
from fractions import Fraction

import pytest

from pgsos import oracle
from pgsos.errors import AllSamplesSkipped
from pgsos.frontend import parse_term
from pgsos.oracle import (
    SampleResult,
    evaluate_sample,
    oracle_suite,
    perturbed_term,
    random_closed_term,
    random_open_term,
    substitution_pair,
)
from pgsos.terms import free_vars, state_var

from helpers import is_closed, unsound_denotations

F = Fraction
X = state_var("x")


def t(doc, text):
    return parse_term(text, doc)


# -- generators -------------------------------------------------------------

def test_random_closed_term_is_closed_and_reproducible(pa_doc):
    terms1 = [random_closed_term(random.Random(4), pa_doc, 3) for _ in range(5)]
    terms2 = [random_closed_term(random.Random(4), pa_doc, 3) for _ in range(5)]
    assert terms1 == terms2
    for u in terms1:
        assert is_closed(u)


def test_perturbed_term_stays_closed(pa_doc):
    rng = random.Random(8)
    base = t(pa_doc, "par(aa0, alt(pa0, bb0))")
    for _ in range(10):
        assert is_closed(perturbed_term(rng, pa_doc, base))


def test_substitution_pair_covers_requested_variables(pa_doc):
    rng = random.Random(12)
    vars_ = (state_var("x"), state_var("y"))
    s1, s2 = substitution_pair(rng, pa_doc, vars_, depth=2)
    assert set(s1) == set(s2) == set(vars_)
    for u in list(s1.values()) + list(s2.values()):
        assert is_closed(u)


def test_random_open_term_draws_from_pool(pa_doc):
    rng = random.Random(2)
    seen_vars = set()
    for _ in range(30):
        u = random_open_term(rng, pa_doc, 3, ("x", "y"))
        seen_vars |= {v.name for v in free_vars(u)}
    assert seen_vars <= {"x", "y"}
    assert seen_vars  # the pool is actually used


# -- single samples ---------------------------------------------------------

def test_identical_substitutions_give_zero_exact(pa_doc):
    s = {X: t(pa_doc, "pa0")}
    out = evaluate_sample(pa_doc, t(pa_doc, "par(x, x)"), s, s)
    assert isinstance(out, SampleResult)
    assert out.exact == 0
    assert out.bound == 0
    assert out.gap == 0


def test_known_tight_sample(pa_doc):
    s1 = {X: t(pa_doc, "aa0")}
    s2 = {X: t(pa_doc, "pa0")}
    out = evaluate_sample(pa_doc, t(pa_doc, "par(x, x)"), s1, s2)
    assert isinstance(out, SampleResult)
    assert dict(out.distances)["x"] == F(1, 10)
    assert out.exact == F(19, 100)
    assert out.bound == F(19, 100)


def test_distance_one_samples_are_skipped(pa_doc):
    s1 = {X: t(pa_doc, "a0")}
    s2 = {X: t(pa_doc, "bb0")}  # an a-step against a b-step: distance 1
    assert evaluate_sample(pa_doc, t(pa_doc, "par(x, x)"), s1, s2) == "distance-one"


def test_budget_refusals_are_skipped(examples_doc):
    s1 = {X: t(examples_doc, "bang(aa0)")}
    s2 = {X: t(examples_doc, "bang(a0)")}
    out = evaluate_sample(examples_doc, t(examples_doc, "par(x, x)"), s1, s2,
                          max_states=16)
    assert out == "refused"


def test_unsound_denotations_are_caught(examples_doc, monkeypatch):
    # reactive testing off ignores that g_test probes its argument, so the
    # bound for f_test collapses to 0 while the true distance is 1/10
    s1 = {X: t(examples_doc, "aa0")}
    s2 = {X: t(examples_doc, "pa0")}
    term = t(examples_doc, "f_test(x)")
    sound = evaluate_sample(examples_doc, term, s1, s2)
    assert isinstance(sound, SampleResult)
    assert sound.exact == F(1, 10) and sound.bound == F(1, 10)
    unsound = unsound_denotations(examples_doc)
    monkeypatch.setattr(oracle, "lfp_denotations", lambda doc: unsound)
    with pytest.raises(RuntimeError, match="exceeds bound"):
        evaluate_sample(examples_doc, term, s1, s2)


# -- the harness -----------------------------------------------------------

def test_compare_counts_every_sample(pa_doc):
    term = t(pa_doc, "par(x, x)")
    summary = oracle_suite(pa_doc, term, seed=7, samples=10)
    assert summary.requested == 10
    assert summary.used == 7
    assert summary.skipped == {"distance-one": 3}
    assert summary.tight == 5
    assert summary.max_gap == F(9, 50)
    for r in summary.results:
        assert r.term == "par(x, x)"
        assert r.exact <= r.bound


def test_compare_is_deterministic(pa_doc):
    term = t(pa_doc, "par(x, x)")
    assert (oracle_suite(pa_doc, term, seed=21, samples=15)
            == oracle_suite(pa_doc, term, seed=21, samples=15))


def test_all_samples_skipped_is_a_refusal(pa_doc):
    term = t(pa_doc, "par(x, x)")
    with pytest.raises(AllSamplesSkipped) as info:
        oracle_suite(pa_doc, term, samples=3, max_states=1)
    assert str(info.value) == "all 3 samples were skipped: refused=3"


def test_suite_runs_clean_and_reproducibly(pa_doc):
    s1 = oracle_suite(pa_doc, seed=11, samples=40)
    s2 = oracle_suite(pa_doc, seed=11, samples=40)
    assert s1 == s2
    assert s1.requested == 40
    assert s1.used > 0
    assert 0 <= s1.max_gap <= 1
    assert s1.used + sum(s1.skipped.values()) == 40
    for r in s1.results:
        assert r.exact <= r.bound


def test_suite_on_unbounded_operators(examples_doc):
    # replication appears in sampled terms; refusals must stay refusals
    # and every evaluated sample must still respect its bound
    summary = oracle_suite(examples_doc, seed=3, samples=25, max_states=64)
    assert summary.requested == 25
    assert summary.used == 14
    assert summary.skipped == {"distance-one": 5, "refused": 6}
    for r in summary.results:
        assert r.exact <= r.bound
