"""Immutable values: a hash computed once keeps its value, copying or
pickling rebuilds the value through its constructor, and no attribute can
be assigned or deleted.

A kept hash must never cross a process: string hashes are seeded per
process, and in CPython 3.11 so is hash(None), which every point at
infinity mixes in.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import secantflow
from secantflow import (INF, CurvePoint, Divisor, h1_dim, make_curve,
                        riemann_roch_space)
from secantflow.errors import Frozen, FrozenValueError, Value

# Builds one value of each kind; run here and again in a child process.
VALUES_SRC = """\
from secantflow import (INF, BundlePair, CurveFunction, Divisor, Poly,
                        make_critical_point, make_curve)
from secantflow.localmodel import LocalScalar, glued_gauge

def build_values():
    curve = make_curve([1, -1, 0, 0, 0, 1])     # y^2 = x^5 - x + 1
    p, q = curve.point(0, 1), curve.point(1, -1)
    D = Divisor({INF: 3, p: 2, q: -1})
    pair = BundlePair(5, 0, 5, Divisor({INF: 3, p: 2}), Divisor.zero(),
                      Divisor({INF: 5}))
    phi = CurveFunction(curve, Poly([1, 2]), Poly([3]), Poly([-1, 1]))
    top = make_critical_point(curve, Divisor({INF: 4}), Divisor({INF: -3}),
                              Divisor({INF: 8}),
                              CurveFunction(curve, Poly([1]), Poly.zero()))
    return {"Poly": curve.f, "CurvePoint": p, "infinity": INF,
            "HyperellipticCurve": curve, "Divisor": D,
            "BundlePair": pair, "CurveFunction": phi,
            "CriticalPointData": top,
            "LocalScalar": (LocalScalar.term(3, z=-1, phi=1)
                            + LocalScalar.const(1)),
            "LocalMatrix": glued_gauge(2)}
"""
_ns: dict = {}
exec(VALUES_SRC, _ns)
build_values = _ns["build_values"]
VALUES = build_values()


@pytest.mark.parametrize("kind", sorted(VALUES))
def test_deepcopy_and_pickle_round_trip(kind):
    value = VALUES[kind]
    hash(value)  # the original keeps its hash before it is copied
    for other in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert other == value
        assert hash(other) == hash(value)
        assert other in {value} and value in {other}


def test_hash_values_are_the_field_hashes():
    v = VALUES
    p, curve, D = v["CurvePoint"], v["HyperellipticCurve"], v["Divisor"]
    phi, pair = v["CurveFunction"], v["BundlePair"]
    assert hash(v["Poly"]) == hash(("Poly", v["Poly"].numerators,
                                    v["Poly"].denominator))
    assert hash(p) == hash((p.at_infinity, p.x, p.y))
    assert hash(v["infinity"]) == hash((True, Fraction(0), Fraction(0)))
    assert hash(curve) == hash((curve.f,))
    assert hash(D) == hash(("Divisor", D.items()))
    assert hash(phi) == hash(("CurveFunction", phi.curve, phi.a, phi.b,
                              phi.den))
    assert hash(pair) == hash((pair.d1, pair.d2, pair.m, pair.L1_rep,
                               pair.L2_rep, pair.M_rep))
    top = v["CriticalPointData"]
    assert hash(top) == hash((top.L1_rep, top.L2_rep, top.M_rep, top.phi))


@pytest.mark.parametrize("kind", sorted(VALUES))
def test_no_attribute_can_be_assigned_or_deleted(kind):
    value = VALUES[kind]
    before = (copy.deepcopy(value), hash(value))
    names = getattr(value, "_fields", None) or type(value).__slots__
    for name in (*names, "no_such_attribute"):
        with pytest.raises(FrozenValueError):
            setattr(value, name, None)
        with pytest.raises(FrozenValueError):
            delattr(value, name)
    assert (value, hash(value)) == before


def _package_classes():
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("secantflow"):
            for obj in vars(module).values():
                if isinstance(obj, type) and obj.__module__ == module.__name__:
                    yield obj


def test_one_base_class_refuses_assignment_and_deletion():
    immutable = [c for c in _package_classes() if issubclass(c, Frozen)]
    assert {c.__name__ for c in immutable} >= {
        "Poly", "Divisor", "CurveFunction", "LocalScalar", "LocalMatrix",
        "Value", "CurvePoint", "CriticalPointData"}
    for cls in _package_classes():
        own = {"__setattr__", "__delattr__"} & vars(cls).keys()
        assert not own or cls is Frozen, cls


def test_no_value_class_defines_its_own_constructor():
    generic = Value.__subclasses__()[0].__init__.__qualname__
    assert generic == "Value.__init_subclass__.<locals>.__init__"
    for cls in Value.__subclasses__():
        assert cls.__init__.__qualname__ == generic, cls
    with pytest.raises(TypeError, match="__init__"):
        class Handmade(Value):
            a: int

            def __init__(self, a):
                pass


def test_every_field_takes_part_in_equality_hashing_and_the_repr():
    with pytest.raises(TypeError):
        class Hiding(Value, hidden=("b",)):
            a: int
            b: int

    class Both(Value):
        a: int
        b: int

    assert Both(1, 2) != Both(1, 3) and hash(Both(1, 2)) == hash((1, 2))
    assert repr(Both(1, 2)).endswith("Both(a=1, b=2)")


def test_a_required_field_may_not_follow_a_defaulted_one():
    with pytest.raises(TypeError, match="without a default"):
        class Unordered(Value):
            a: int = 0
            b: int

    class Ordered(Value):
        a: int
        b: int = 2
        c: tuple = ()

    assert Ordered(1) == Ordered(1, 2, ()) == Ordered(a=1)
    assert Ordered(1, 3).b == 3 and Ordered(1, c=(4,)).c == (4,)
    for args in ((), (1, 2, (), 4)):
        with pytest.raises(TypeError):
            Ordered(*args)


CHILD = VALUES_SRC + """
import pickle, sys
loaded = pickle.loads(sys.stdin.buffer.read())
fresh = build_values()
bad = [k for k in fresh
       if loaded[k] not in set(fresh.values()) or fresh[k] not in {loaded[k]}]
print(",".join(bad))
"""


def test_unpickled_values_hash_fresh_in_another_process():
    for value in VALUES.values():
        hash(value)
    seed = "4242" if os.environ.get("PYTHONHASHSEED") != "4242" else "4243"
    src = str(Path(secantflow.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONHASHSEED": seed,
           "PYTHONPATH": src if not path else src + os.pathsep + path}
    res = subprocess.run([sys.executable, "-c", CHILD],
                         input=pickle.dumps(VALUES), capture_output=True,
                         env=env, timeout=60)
    assert res.returncode == 0, res.stderr.decode()
    assert res.stdout.decode().strip() == ""


def test_infinity_hashes_alike_in_every_process():
    """INF's hash reads no object address (hash(None) does before 3.12),
    so hashed containers of points lay out alike in every process."""
    src = str(Path(secantflow.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONHASHSEED": "0",
           "PYTHONPATH": src if not path else src + os.pathsep + path}
    code = "from secantflow import INF; print(hash(INF))"
    seen = {subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=env, timeout=60,
                           check=True).stdout.strip() for _ in range(2)}
    assert seen == {str(hash(INF))}


# -- Divisor against a plain dict --------------------------------------------

G2 = make_curve([1, -1, 0, 0, 0, 1])             # y^2 = x^5 - x + 1
POINTS = [INF] + [G2.point(x, y) for x in (0, 1, -1) for y in (1, -1)]
COEFFS = st.dictionaries(st.sampled_from(POINTS), st.integers(-3, 3),
                         max_size=len(POINTS))


def ref_items(d: dict) -> tuple:
    return tuple(sorted(((p, m) for p, m in d.items() if m),
                        key=lambda t: t[0].sort_key()))


def ref_repr(d: dict) -> str:
    parts = [f"{m}*inf" if p.at_infinity else f"{m}*({p.x},{p.y})"
             for p, m in ref_items(d)]
    return "Divisor(" + (" + ".join(parts) or "0") + ")"


@settings(max_examples=200, deadline=None)
@given(COEFFS, COEFFS)
def test_divisor_agrees_with_a_dict(a, b):
    A, B = Divisor(a), Divisor(b)
    keys = a.keys() | b.keys()
    assert (A == B) == (ref_items(a) == ref_items(b))
    assert A.items() == ref_items(a) and repr(A) == ref_repr(a)
    assert hash(A) == hash(("Divisor", A.items()))
    assert (A <= B) == all(a.get(p, 0) <= b.get(p, 0) for p in keys)
    for got, want in ((A + B, {p: a.get(p, 0) + b.get(p, 0) for p in keys}),
                      (A - B, {p: a.get(p, 0) - b.get(p, 0) for p in keys}),
                      (A.gcd(B),
                       {p: min(a.get(p, 0), b.get(p, 0)) for p in keys})):
        assert got.items() == ref_items(want)
        assert hash(got) == hash(("Divisor", ref_items(want)))
    # copies of a divisor whose point order was never read
    fresh = A + B
    for other in (pickle.loads(pickle.dumps(fresh)), copy.deepcopy(fresh)):
        assert other == fresh
        assert other.items() == fresh.items()
        assert hash(other) == hash(fresh)


def test_point_order_is_derived_once_on_first_use(monkeypatch):
    calls = []
    key = CurvePoint.sort_key
    monkeypatch.setattr(CurvePoint, "sort_key",
                        lambda self: calls.append(self) or key(self))
    D = Divisor({p: i + 1 for i, p in enumerate(POINTS)})
    E = (D + D - D).gcd(D)
    assert E == D and E <= D and E.degree == D.degree and E.coeff(INF) == 1
    assert calls == []          # arithmetic and equality read the dict only
    E.items()
    first = len(calls)
    assert first > 0
    hash(E), repr(E), E.items(), E.support()
    assert len(calls) == first


# -- a point's kept conjugate ------------------------------------------------

def test_a_point_keeps_its_conjugate():
    p = G2.point(1, 1)
    q = p.conjugate()
    assert q == CurvePoint.affine(1, -1) and q is not p
    assert p.conjugate() is q and q.conjugate() is p
    assert INF.conjugate() is INF and CurvePoint(True).conjugate() == INF


def test_a_kept_conjugate_is_no_field():
    kept = G2.point(-1, 1)
    kept.conjugate()
    fresh = CurvePoint.affine(-1, 1)
    assert kept == fresh and fresh == kept
    assert hash(kept) == hash(fresh) == hash((False, Fraction(-1), Fraction(1)))
    assert repr(kept) == repr(fresh) == "CurvePoint(-1, 1)"
    for other in (copy.copy(kept), copy.deepcopy(kept),
                  pickle.loads(pickle.dumps(kept))):
        assert other == kept and "_conjugate" not in vars(other)
        assert other.conjugate() == kept.conjugate()
        assert other.conjugate() is not kept.conjugate()


def test_repeated_riemann_roch_builds_no_point(monkeypatch):
    p, q = G2.point(0, 1), G2.point(1, -1)
    D = Divisor({INF: 3, p: 2, p.conjugate(): -1, q: 1})
    first = (riemann_roch_space(G2, D), h1_dim(G2, D))
    built = []
    init = CurvePoint.__init__
    monkeypatch.setattr(CurvePoint, "__init__",
                        lambda self, *a: built.append(a) or init(self, *a))
    again = (riemann_roch_space(G2, D), h1_dim(G2, D))
    assert again == first and built == []
