"""The mutant runner's own gate, which needs no mutant applied: every
entry names a test that draws nothing, so its kill does not hang on a
hypothesis draw."""

from __future__ import annotations

import pytest

import mutants


def test_every_entry_names_a_test_that_draws_nothing():
    assert mutants.refused() == []


def test_an_entry_of_drawing_tests_only_is_refused():
    drawn = "tests/test_secant.py::test_framed_jets_agree_with_sympy"
    fixed = ("tests/test_secant.py::"
             "test_jet_weighs_each_denominator_term_by_its_power_of_q0")
    assert mutants.refused((mutants.Mutant("curve.py", "a", "b", (drawn,)),
                            mutants.Mutant("curve.py", "a", "b",
                                           (drawn, fixed)))) == [
        "[0] curve.py: 'a': every named test carries @given"]
    with pytest.raises(LookupError, match="defines no test"):
        mutants.refused((mutants.Mutant("curve.py", "a", "b",
                                        ("tests/test_secant.py::nowhere",)),))
