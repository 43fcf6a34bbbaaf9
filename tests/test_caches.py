"""Every memo in the package is bounded, so a long-lived process that
keeps meeting new curves, pairs and nodes does not grow without limit."""

from __future__ import annotations

from secantflow import curve, make_curve, resolution, secant

CACHES = (curve._y_series_cached, secant.twist_section_space,
          secant._jet_block, secant.secant_plane,
          resolution._canonical_class, resolution._continuations)


def test_every_cache_has_a_finite_bound():
    for cache in CACHES:
        assert cache.cache_parameters()["maxsize"] is not None, cache


def test_overfilled_cache_stays_within_its_bound():
    cache = curve._y_series_cached
    bound = cache.cache_parameters()["maxsize"]
    for c in range(1, bound + 9):  # y^2 = x^5 + x + c^2 passes (0, c)
        make_curve([c * c, 1, 0, 0, 0, 1]).y_series(0, c, 1)
    info = cache.cache_info()
    assert info.currsize <= info.maxsize
    assert info.currsize == bound
