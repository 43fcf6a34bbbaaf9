"""Critical sets, Morse indices, stratum codimensions, closure order."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secantflow import (
    ModuliParams,
    critical_dim,
    critical_range,
    fibre_dim_crosscheck,
    morse_index,
    smale_check,
    standard_curve,
    strat_poset,
    stratum_codim,
    unstable_fibre_dim,
)
from secantflow.errors import BoundViolationError


# -- parameters and level ranges --------------------------------------------

def test_parameter_validation():
    with pytest.raises(BoundViolationError):
        ModuliParams(1, 1, 2)
    with pytest.raises(BoundViolationError):
        ModuliParams(2, 1, 0)
    assert ModuliParams(2, 1, 2).coprime
    assert not ModuliParams(2, 0, 2).coprime


def test_level_ranges():
    assert list(ModuliParams(2, 1, 2).level_range()) == [1]
    assert list(ModuliParams(2, 1, 6).level_range()) == [1, 2, 3]
    assert list(ModuliParams(2, 0, 2).level_range()) == [1]
    assert list(ModuliParams(3, 2, 5).level_range()) == [2, 3]


def test_level_range_endpoints():
    p = ModuliParams(2, 1, 6)
    assert p.d_min == 1 and p.d_max == 3
    assert p.in_range(1) and p.in_range(3)
    assert not p.in_range(0) and not p.in_range(4)


# -- indices and dimensions -------------------------------------------------

def test_morse_index_values():
    assert morse_index(ModuliParams(2, 1, 2), 1) == 4
    assert morse_index(ModuliParams(2, 0, 2), 1) == 6
    assert morse_index(ModuliParams(3, 1, 4), 2) == 10


def test_fibre_dim_is_half_the_index():
    for g, degE, degM in [(2, 1, 2), (2, 0, 2), (3, 1, 4), (3, 0, 6)]:
        p = ModuliParams(g, degE, degM)
        for d in p.level_range():
            assert 2 * unstable_fibre_dim(p, d) == morse_index(p, d)


def test_critical_dim_values():
    p = ModuliParams(2, 1, 6)
    assert critical_dim(p, 1) == 7        # degE - 2d + degM + g
    assert critical_dim(p, 3) == 3
    pf = ModuliParams(2, 1, 6, fixed_determinant=True)
    assert critical_dim(pf, 1) == 5       # determinant directions dropped


def test_critical_range_listing():
    sets = critical_range(ModuliParams(2, 1, 6))
    assert [c.d for c in sets] == [0, 1, 2, 3]
    assert sets[0].is_minimum and sets[0].dim_cplx is None
    assert [(c.index_real, c.dim_cplx) for c in sets[1:]] == [
        (4, 7), (8, 5), (12, 3)]
    assert [c.f_rank_order for c in sets] == [0, 1, 2, 3]


def test_out_of_range_levels_rejected():
    p = ModuliParams(2, 1, 6)
    for fn in (morse_index, unstable_fibre_dim, critical_dim):
        with pytest.raises(BoundViolationError):
            fn(p, 0)
        with pytest.raises(BoundViolationError):
            fn(p, 4)


# -- stratum codimensions ---------------------------------------------------

def test_stratum_codim_values():
    assert stratum_codim(ModuliParams(2, 1, 6), 1, 3) == 4
    assert stratum_codim(ModuliParams(2, 0, 4), 1, 2) == 6


def test_stratum_codim_equals_index_of_lower_level():
    for g in (2, 3):
        for degE in (0, 1):
            p = ModuliParams(g, degE, 8)
            for u in p.level_range():
                for ell in p.level_range():
                    if ell < u:
                        assert (stratum_codim(p, ell, u)
                                == morse_index(p, ell))


def test_stratum_codim_bounds():
    p = ModuliParams(2, 1, 6)
    with pytest.raises(BoundViolationError):
        stratum_codim(p, 0, 3)            # ell must exceed degE/2
    with pytest.raises(BoundViolationError):
        stratum_codim(p, 2, 2)            # needs ell < u
    with pytest.raises(BoundViolationError):
        stratum_codim(p, 1, 5)            # u outside the range


# -- closure poset ----------------------------------------------------------

def test_strat_poset_structure():
    sp = strat_poset(ModuliParams(2, 1, 6), 3)
    assert sp.strata == (0, 1, 2)


def test_strat_poset_is_linear():
    sp = strat_poset(ModuliParams(3, 0, 8), 4)
    # closure order is the order of the levels: the strata form one chain
    assert sp.strata == (0, 1, 2, 3)


def test_strat_poset_errors():
    for u in (0, 9):                      # outside the critical range
        with pytest.raises(BoundViolationError):
            strat_poset(ModuliParams(2, 1, 6), u)


# -- transversality dimension identity --------------------------------------

def test_smale_check_reports():
    rep = smale_check(ModuliParams(2, 1, 6))
    assert rep.ok
    assert [(r.ell, r.u) for r in rep.rows] == [(1, 2), (1, 3), (2, 3)]
    assert all(r.codim == r.index for r in rep.rows)

    rep2 = smale_check(ModuliParams(3, 0, 4))
    assert rep2.ok
    assert [(r.ell, r.u) for r in rep2.rows] == [(1, 2)]


def test_smale_check_single_level_is_vacuous():
    rep = smale_check(ModuliParams(2, 1, 2))
    assert rep.ok and rep.rows == ()


# -- cohomological cross-check ----------------------------------------------

def test_fibre_dim_crosscheck_deterministic():
    rows = fibre_dim_crosscheck(ModuliParams(2, 1, 4))
    assert rows and all(r["ok"] for r in rows)
    assert {r["d"] for r in rows} == {1, 2}
    for r in rows:
        assert r["h1"] == r["formula"]


def test_fibre_dim_crosscheck_randomized():
    rows = fibre_dim_crosscheck(ModuliParams(2, 1, 4),
                                rng=random.Random(7), samples=3)
    assert len(rows) > 4 and all(r["ok"] for r in rows)


def test_fibre_dim_crosscheck_genus_three():
    rows = fibre_dim_crosscheck(ModuliParams(3, 0, 4),
                                curve=standard_curve(3),
                                rng=random.Random(11))
    assert rows and all(r["ok"] for r in rows)


# -- index formula as a property --------------------------------------------

@given(st.integers(2, 5), st.integers(0, 1), st.integers(2, 10))
@settings(max_examples=60, deadline=None)
def test_index_increases_along_levels(g, degE, degM):
    p = ModuliParams(g, degE, degM)
    levels = list(p.level_range())
    indices = [morse_index(p, d) for d in levels]
    assert indices == sorted(indices)
    # consecutive levels differ by 4 in the real index
    assert all(b - a == 4 for a, b in zip(indices, indices[1:]))
