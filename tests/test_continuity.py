"""Operator compositionality: moduli of continuity, verdicts, modulus checks."""

import json
from fractions import Fraction

import pytest

from pgsos import cli
from pgsos.continuity import (
    VERDICT_CONTINUOUS,
    VERDICT_NOT_SHOWN,
    ModulusSpec,
    check_modulus,
    is_uniformly_continuous,
    parse_modulus,
)
from pgsos.denotation import lfp_denotations
from pgsos.errors import ArityMismatch, UndeclaredSymbol, UnsupportedModulusShape
from pgsos.frontend import parse_spec
from pgsos.multiplicity import INF
from pgsos.terms import DistApply, DistVariable

from helpers import document_flags
from test_denotation import WIDENING_SPECS

F = Fraction


# -- ModulusSpec ------------------------------------------------------------

def test_modulus_evaluate_caps_at_one():
    z = ModulusSpec(2, (F(1), F(1)))
    assert z.evaluate((F(1, 10), F(1, 10))) == F(1, 5)
    assert z.evaluate((F(9, 10), F(9, 10))) == 1
    assert z.evaluate((F(0), F(0))) == 0


def test_modulus_evaluate_with_infinite_coefficient():
    z = ModulusSpec(1, (INF,))
    assert z.evaluate((F(0),)) == 0
    assert z.evaluate((F(1, 1000),)) == 1
    assert not z.is_finite()


def test_modulus_str_forms():
    assert str(ModulusSpec(2, (F(0), F(0)))) == "0"
    assert str(ModulusSpec(2, (F(1), F(1, 2)))) == "min(e1 + 1/2*e2, 1)"
    assert str(ModulusSpec(1, (INF,))) == "min(inf*e1, 1)"


def test_modulus_validates_shape():
    with pytest.raises(ValueError):
        ModulusSpec(2, (F(1),))
    with pytest.raises(ValueError):
        ModulusSpec(1, (F(-1),))
    with pytest.raises(ArityMismatch):
        ModulusSpec(1, (F(1),)).evaluate((F(0), F(0)))


# -- weighted suprema: the derived modulus coefficients ---------------------

def test_weighted_sup_single_generator_is_its_own_weighting(pa_doc):
    z = is_uniformly_continuous(pa_doc, "ppref_a_5_5").modulus
    assert z.coefficients == (F(1, 2), F(1, 2))


def test_weighted_sup_dirac_generators_join_exactly(pa_doc):
    assert not is_uniformly_continuous(pa_doc, "alt").over_approximated
    z = is_uniformly_continuous(pa_doc, "alt").modulus
    assert z.coefficients == (1, 1)


def test_weighted_sup_restricts_to_argument_positions(pa_doc):
    # one coefficient per argument position, nothing for other variables
    z = is_uniformly_continuous(pa_doc, "par").modulus
    assert z.arity == 2
    assert z.coefficients == (1, 1)


def test_weighted_sup_unknown_operator(pa_doc):
    with pytest.raises(UndeclaredSymbol):
        is_uniformly_continuous(pa_doc, "missing")


MIXED = """
actions a, b;
op zero : 0;
op pref_a : 1;
op pref_b : 1;
op par : 2;
op mix : 2;
rule forall c in ACT:
  x1 --c--> m1
  x2 --c--> m2
  ---
  par(x1, x2) --c--> par(m1, m2)
rule:
  ---
  pref_a(x1) --a--> delta(x1)
rule:
  ---
  pref_b(x1) --b--> delta(x1)
rule:
  x1 --a--> m1
  ---
  mix(x1, x2) --a--> 1/2*par(m1, par(m1, m1)) + 1/2*delta(zero)
rule:
  x2 --b--> m2
  ---
  mix(x1, x2) --b--> m2
"""


def test_weighted_sup_flags_non_dirac_join():
    doc = parse_spec(MIXED)
    # the joined bound is the pointwise max over support draws
    z = is_uniformly_continuous(doc, "mix").modulus
    assert z.coefficients == (3, 1)
    report = is_uniformly_continuous(doc, "mix")
    # the per-generator expectations (3/2 and 1) are still finite, so the
    # verdict holds even though the reported coefficients over-shoot
    assert report.verdict == VERDICT_CONTINUOUS
    assert report.over_approximated
    assert report.copies_bound == 2
    assert any("over-approximate" in r for r in report.reasons)


def test_queries_leave_the_fixpoint_flags_alone(tmp_path, capsys):
    doc = parse_spec(MIXED)
    den = lfp_denotations(doc)
    assert document_flags(den) == (False, False)
    # the distribution-level summary of mix over-approximates the join of
    # its non-Dirac rule generators: that query is flagged, no other
    mus = (DistVariable("mu1"), DistVariable("mu2"))
    assert str(den.genset(DistApply("mix", mus))) == "{mu1:3, mu2:1}"
    assert den.flags(DistApply("mix", mus)) == (False, True)
    assert document_flags(den) == (False, False)
    spec = tmp_path / "mixed.pgsos"
    spec.write_text(MIXED)
    # the command line shares the cached fixpoint the query went through
    assert lfp_denotations(cli.load_spec(str(spec))) is den
    assert cli.main(["--json", "bound", str(spec), "par(x, x)",
                     "--dist", "x=1/10"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["flags"]["over_approximated"] is False


# -- verdicts on the shipped operator suites --------------------------------

def test_all_finite_algebra_operators_are_continuous(pa_doc):
    expected_copies = {"zero": 0, "pref_a": 1, "pref_b": 1,
                       "ppref_a_9_1": 1, "ppref_b_8_2": 1, "ppref_a_5_5": 1,
                       "alt": 1, "par": 1, "parB": 1, "ipar": 1}
    for op, _arity in pa_doc.signature.operators:
        report = is_uniformly_continuous(pa_doc, op)
        assert report.verdict == VERDICT_CONTINUOUS, op
        assert report.copies_bound == expected_copies[op], op
        assert not report.over_approximated
        assert report.annotation is None


def test_duplicating_operator_needs_two_copies(examples_doc):
    report = is_uniformly_continuous(examples_doc, "f_alt")
    assert report.verdict == VERDICT_CONTINUOUS
    assert report.copies_bound == 2
    assert str(report.modulus) == "min(2*e1, 1)"


def test_probabilistic_duplication_averages_to_one_copy(examples_doc):
    report = is_uniformly_continuous(examples_doc, "h_rep")
    assert report.verdict == VERDICT_CONTINUOUS
    assert report.copies_bound == 1
    assert str(report.modulus) == "min(e1, 1)"


def test_replication_is_not_shown_continuous(examples_doc):
    report = is_uniformly_continuous(examples_doc, "bang")
    assert report.verdict == VERDICT_NOT_SHOWN
    assert report.copies_bound is None
    assert report.modulus.coefficients == (INF,)
    assert report.widened
    assert any("infinite coefficient" in r for r in report.reasons)
    assert any("widening" in r for r in report.reasons)
    assert report.annotation is not None
    assert "unboundedly many" in report.annotation


def test_widening_an_over_approximated_fixpoint_hedges_the_annotation():
    # rep's count of x1 grows only through the over-approximated summary of
    # its own generators, so the widened INF is no proof of unbounded
    # spawning; spawn's count grows without it and keeps the claim
    doc = parse_spec(WIDENING_SPECS["replicate_test"])
    assert document_flags(lfp_denotations(doc))[1]
    report = is_uniformly_continuous(doc, "rep")
    assert report.verdict == VERDICT_NOT_SHOWN
    assert report.modulus.coefficients == (INF,)
    assert report.copies_bound is None
    assert report.reasons == ("infinite coefficient at x1",
                              "denotation required widening of an "
                              "unbounded growth chain")
    assert report.annotation == (
        "no finite copy bound was found: the infinite count was widened in "
        "a fixed point that over-approximates the least one, so the "
        "operator may still be uniformly continuous")
    spawn = is_uniformly_continuous(
        parse_spec(WIDENING_SPECS["spawn_duplicate"]), "spawn")
    assert "not uniformly continuous" in spawn.annotation


def test_derived_modulus_satisfies_its_own_check(pa_doc, examples_doc):
    for doc in (pa_doc, examples_doc):
        for op, _arity in doc.signature.operators:
            z = is_uniformly_continuous(doc, op).modulus
            assert check_modulus(doc, op, z), op


def test_check_modulus_hand_cases(pa_doc, examples_doc):
    assert check_modulus(pa_doc, "par", ModulusSpec(2, (F(1), F(1))))
    assert not check_modulus(pa_doc, "par", ModulusSpec(2, (F(1, 2), F(1))))
    assert check_modulus(pa_doc, "ppref_a_5_5", ModulusSpec(2, (F(1, 2), F(1, 2))))
    assert check_modulus(examples_doc, "bang", ModulusSpec(1, (INF,)))
    assert not check_modulus(examples_doc, "bang", ModulusSpec(1, (F(10**6),)))


def test_check_modulus_arity_mismatch(pa_doc):
    with pytest.raises(ArityMismatch):
        check_modulus(pa_doc, "par", ModulusSpec(1, (F(1),)))


def test_parallel_modulus_value(pa_doc):
    z = is_uniformly_continuous(pa_doc, "par").modulus
    assert z.evaluate((F(1, 10), F(1, 10))) == F(1, 5)
    assert str(z) == "min(e1 + e2, 1)"


# -- parsing user-supplied moduli -------------------------------------------

def test_parse_modulus_accepted_shapes():
    assert parse_modulus("e1 + e2", 2).coefficients == (F(1), F(1))
    assert parse_modulus("min(e1 + e2, 1)", 2).coefficients == (F(1), F(1))
    assert parse_modulus("1/2*e1 + e2", 2).coefficients == (F(1, 2), F(1))
    assert parse_modulus("0.5*e1", 1).coefficients == (F(1, 2),)
    assert parse_modulus("inf*e1", 1).coefficients == (INF,)
    assert parse_modulus("0", 2).coefficients == (F(0), F(0))
    # duplicate indices accumulate
    assert parse_modulus("e1 + e1", 1).coefficients == (F(2),)
    assert parse_modulus("inf*e1 + e1", 1).coefficients == (INF,)


def test_parse_modulus_rejected_shapes():
    for text in ("e1*e2", "e1 - e2", "e1 + 1/2", "e3", "inf",
                 "min(e1, 2)", "", "sqrt(e1)"):
        with pytest.raises(UnsupportedModulusShape):
            parse_modulus(text, 2)
