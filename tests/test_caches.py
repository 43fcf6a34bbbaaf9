"""Every memo in the package is bounded, so a long-lived process that
keeps meeting new curves, pairs and nodes does not grow without limit."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import secantflow
from secantflow import (INF, CurveFunction, CurvePoint, Divisor, Poly,
                        commuting_check, curve, enumerate_chains,
                        make_critical_point, make_curve, pool_divisors,
                        resolution)
from secantflow.curve import validate_support
from secantflow.errors import MalformedInputError, UnsupportedSupportError


def package_caches() -> dict:
    """Every ``functools.lru_cache`` defined in a secantflow module, found
    by introspection, so a new cache cannot slip past the bound check."""
    found = {}
    for info in pkgutil.iter_modules(secantflow.__path__):
        if info.name.startswith("__"):  # __main__ would run the CLI
            continue
        module = importlib.import_module(f"secantflow.{info.name}")
        for name, obj in vars(module).items():
            if (hasattr(obj, "cache_parameters")
                    and obj.__module__ == module.__name__):
                found[f"{module.__name__}.{name}"] = obj
    return found


def test_every_cache_has_a_finite_bound():
    caches = package_caches()
    assert {"secantflow.curve._y_series_cached",
            "secantflow.curve._check_point",
            "secantflow.curve._root_order",
            "secantflow.secant.twist_section_space",
            "secantflow.secant._jet_block",
            "secantflow.secant.secant_plane",
            "secantflow.secant._pool_divisors",
            "secantflow.resolution._canonical_class",
            "secantflow.resolution._validate_critical_point",
            "secantflow.resolution._continuations"} <= caches.keys()
    for name, cache in caches.items():
        assert cache.cache_parameters()["maxsize"] is not None, name


def test_overfilled_cache_stays_within_its_bound():
    cache = curve._y_series_cached
    bound = cache.cache_parameters()["maxsize"]
    for c in range(1, bound + 9):  # y^2 = x^5 + x + c^2 passes (0, c)
        make_curve([c * c, 1, 0, 0, 0, 1]).y_series(0, c, 1)
    info = cache.cache_info()
    assert info.currsize <= info.maxsize
    assert info.currsize == bound


def test_failing_point_is_not_remembered():
    g2 = make_curve([4, 4, 0, 0, 0, 1])            # y^2 = x^5 + 4x + 4
    good, bad = g2.point(0, 2), CurvePoint.affine(0, 3)
    validate_support(g2, Divisor({good: 1}))
    hits = curve._check_point.cache_info().hits
    validate_support(g2, Divisor({good: 2}))
    assert curve._check_point.cache_info().hits == hits + 1
    for _ in range(2):
        with pytest.raises(UnsupportedSupportError):
            validate_support(g2, Divisor({good: 1, bad: 1}))
    # a point passed on one curve is still checked on another
    with pytest.raises(UnsupportedSupportError):
        validate_support(make_curve([1, 4, 0, 0, 0, 1]), Divisor({good: 1}))


def test_failing_critical_point_is_not_remembered():
    g2 = make_curve([1, -1, 0, 0, 0, 1])           # y^2 = x^5 - x + 1
    p = g2.point(0, 1)
    L1, L2, M = Divisor({INF: 3}), Divisor({INF: -3, p: 1}), Divisor({INF: 8})
    one = CurveFunction(g2, Poly([1]), Poly.zero())
    pole = CurveFunction(g2, Poly([1]), Poly([1]), Poly([0, 1]))  # (1 + y)/x
    cache = resolution._validate_critical_point
    top = make_critical_point(g2, L1, L2, M, one)
    hits = cache.cache_info().hits
    make_critical_point(g2, L1, L2, M, one)
    assert cache.cache_info().hits == hits + 1
    size = cache.cache_info().currsize
    for _ in range(2):
        with pytest.raises(MalformedInputError, match="^phi: "):
            make_critical_point(g2, L1, L2, M, pole)
    assert cache.cache_info().currsize == size
    # a critical point passed on one curve is still checked on another
    with pytest.raises(UnsupportedSupportError):
        cache(make_curve([4, 4, 0, 0, 0, 1]), top)


def test_pool_divisors_built_once_for_list_and_tuple():
    g2 = make_curve([4, 4, 0, 0, 0, 1])
    pool = [g2.point(0, 2), g2.point(0, -2), g2.point(1, 3)]
    divisors = pool_divisors(pool, 2)
    assert pool_divisors(tuple(pool), 2) is divisors
    assert pool_divisors(list(pool), 2) is divisors
    assert len(divisors) == 6


def test_chain_dag_cache_keeps_one_query():
    """A chain DAG can weigh megabytes, and its one reuse is the diagram
    check right after the enumeration of the same query: distinct queries
    leave one DAG, and the check after its own enumeration still hits."""
    g2 = make_curve([1, -1, 0, 0, 0, 1])           # y^2 = x^5 - x + 1
    one = CurveFunction(g2, Poly([1]), Poly.zero())
    top = make_critical_point(g2, Divisor({INF: 3}), Divisor({INF: -2}),
                              Divisor({INF: 6}), one)
    pool = [g2.point(0, 1), g2.point(0, -1), g2.point(1, 1), g2.point(1, -1)]
    cache = resolution._continuations
    for query in (pool, pool[::-1], pool[1:] + pool[:1]):
        enumerate_chains(g2, top, 2, query)
        assert cache.cache_info().currsize == 1
        hits = cache.cache_info().hits
        assert commuting_check(g2, top, 2, query).ok
        assert cache.cache_info().hits == hits + 1
