"""The value mechanism against ``dataclasses``: every value class of the
package is compared with a ``dataclass(frozen=True)`` twin declared from
the same annotations, defaults, ``__post_init__`` and own ``__repr__``.

Both must agree on construction (positional, keyword, defaults, bad
arguments, ``__post_init__`` errors), ``==``, the exact hash value,
``repr``, ``replace`` and refused assignment.  Copies and pickles of a
value are checked against the value itself: a twin class declared inside
a test cannot be pickled.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secantflow import curve, localmodel, morse, resolution, secant
from secantflow.curve import INF, CurveFunction, Divisor, make_curve
from secantflow.errors import Value, replace
from secantflow.polynomials import Poly

CLASSES = {
    "CurvePoint": curve, "HyperellipticCurve": curve, "JetVector": curve,
    "SectionSpace": curve,
    "BundlePair": secant, "DualClass": secant, "SecantPlane": secant,
    "StratumResult": secant,
    "FlowLinePoint": resolution, "CriticalPointData": resolution,
    "ChainRecord": resolution, "CommutingReport": resolution,
    "ModuliParams": morse, "CriticalSet": morse, "StratPoset": morse,
    "SmaleRow": morse, "SmaleReport": morse,
    "SmoothnessReport": localmodel, "TrivializationReport": localmodel,
}
def twin_of(cls):
    """The dataclass the value class would be: its annotations, defaults,
    ``__post_init__`` and own ``__repr__``, under the same qualified name."""
    ns = {"__annotations__": dict(cls.__annotations__),
          "__qualname__": cls.__qualname__, "__module__": __name__}
    for name in cls.__annotations__:
        if name in vars(cls):
            ns[name] = vars(cls)[name]
    for name in ("__post_init__", "__repr__"):
        if name in vars(cls):
            ns[name] = vars(cls)[name]
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), ns))


def test_the_oracle_covers_every_value_class():
    package = {cls.__name__: cls for cls in Value.__subclasses__()
               if cls.__module__.startswith("secantflow.")}
    assert package.keys() == CLASSES.keys()
    for name, module in CLASSES.items():
        assert getattr(module, name) is package[name]


# -- field values ------------------------------------------------------------

G2 = make_curve([1, -1, 0, 0, 0, 1])                 # y^2 = x^5 - x + 1
POINTS = [G2.point(x, y) for x in (0, 1, -1) for y in (1, -1)]
FUNCTIONS = [CurveFunction(G2, Poly([1]), Poly.zero()),
             CurveFunction(G2, Poly([1, 2]), Poly([3]), Poly([-1, 1]))]
TOP = resolution.make_critical_point(
    G2, Divisor({INF: 4}), Divisor({INF: -3}), Divisor({INF: 8}),
    FUNCTIONS[0])
PAIR = TOP.pair()
MATRICES = [*localmodel.gauge_factors(1), localmodel.glued_gauge(2)]

ints = st.integers(-3, 6)
small = st.integers(0, 3)
fracs = st.fractions(min_value=-2, max_value=2, max_denominator=3)
divisors = st.dictionaries(st.sampled_from([INF, *POINTS]), st.integers(-2, 3),
                           max_size=3).map(Divisor)
effective = st.dictionaries(st.sampled_from(POINTS), st.integers(1, 2),
                            min_size=1, max_size=2).map(Divisor)
points = st.one_of(st.just(INF), st.sampled_from(POINTS))
polys = st.lists(st.integers(-2, 2), max_size=4).map(Poly)
functions = st.sampled_from(FUNCTIONS)
coords = st.tuples(fracs, fracs, fracs)
dual = st.tuples(st.integers(1, 3), fracs, fracs).map(secant.DualClass)
matrices = st.sampled_from(MATRICES)
moduli = st.builds(morse.ModuliParams, st.integers(2, 4), ints,
                   st.integers(1, 8), st.booleans())
smale_rows = st.builds(morse.SmaleRow, ints, ints, ints, ints)
pairs = st.one_of(st.just(PAIR),
                  st.builds(secant.BundlePair.at_infinity,
                            st.just(5), st.just(0), st.just(5)))
flow_points = st.builds(resolution.FlowLinePoint,
                        st.just(secant.DualClass((1, 0))), effective,
                        st.sampled_from([Fraction(0), Fraction(1, 2)]))
# a chain entry: a flow-line point, or something a chain refuses (a
# (point, limit) pair, a critical point, None)
chain_entries = st.one_of(
    flow_points, flow_points.map(lambda x: (x, TOP.twisted(x.witness))),
    st.sampled_from([TOP, None]))

FIELDS = {
    "CurvePoint": (st.booleans(), st.one_of(st.none(), fracs),
                   st.one_of(st.none(), fracs)),
    "HyperellipticCurve": (polys,),
    "JetVector": (points, coords),
    "SectionSpace": (divisors, st.tuples(functions)),
    "BundlePair": (ints, ints, ints, divisors, divisors, divisors),
    "DualClass": (st.one_of(coords, st.tuples(st.booleans(), fracs),
                            st.just((0, 0))),),
    "SecantPlane": (st.just(G2), pairs, effective),
    "StratumResult": (small, st.tuples(effective)),
    "FlowLinePoint": (dual, divisors,
                      st.one_of(st.none(), fracs, st.just(True))),
    "CriticalPointData": (divisors, divisors, divisors, functions),
    "ChainRecord": (st.just(TOP),
                    st.lists(chain_entries, max_size=2).map(tuple)),
    "CommutingReport": (small, small, small, small),
    "ModuliParams": (ints, ints, ints, st.booleans()),
    "CriticalSet": (ints, ints, st.one_of(st.none(), ints), ints,
                    st.booleans()),
    "StratPoset": (ints, st.lists(small, max_size=3).map(tuple)),
    "SmaleRow": (ints, ints, ints, ints),
    "SmaleReport": (moduli, st.lists(smale_rows, max_size=2).map(tuple)),
    "SmoothnessReport": (small, matrices, matrices, matrices, st.booleans(),
                         st.booleans()),
    "TrivializationReport": (st.booleans(), st.booleans()),
}


def _bundle_args(L2, E, k):
    L1, M = L2 + E, E + Divisor({INF: k})
    return L1.degree, L2.degree, M.degree, L1, L2, M


# tuples that pass __post_init__ more often than independent fields would
ARGS = {
    "BundlePair": st.builds(_bundle_args, divisors, effective,
                            st.integers(0, 2)),
    "FlowLinePoint": st.tuples(dual, effective,
                               st.sampled_from([Fraction(0), Fraction(2, 3)])),
    "ChainRecord": st.tuples(st.just(TOP),
                             st.lists(flow_points, max_size=3).map(tuple)),
}


def arguments(name):
    plain = st.tuples(*FIELDS[name])
    return st.one_of(plain, ARGS[name]) if name in ARGS else plain


def outcome(fn, *args, **kwargs):
    """("ok", value) or ("raised", exception type, message)."""
    try:
        return ("ok", fn(*args, **kwargs))
    except Exception as exc:  # the two sides must fail alike
        return ("raised", type(exc), str(exc))


def same_outcome(got, want):
    if want[0] == "raised":
        assert got == want
        return None
    assert got[0] == "ok", got
    value, twin = got[1], want[1]
    assert repr(value) == repr(twin)
    assert hash(value) == hash(twin)
    names = [f.name for f in dataclasses.fields(twin)]
    assert [getattr(value, n) for n in names] == [getattr(twin, n)
                                                  for n in names]
    return value, twin


# -- the comparison ------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(CLASSES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_value_class_agrees_with_its_dataclass_twin(name, data):
    cls = getattr(CLASSES[name], name)
    twin = twin_of(cls)
    fields = dataclasses.fields(twin)
    names = [f.name for f in fields]
    a = data.draw(arguments(name), label="a")
    b = data.draw(arguments(name), label="b")

    built = same_outcome(outcome(cls, *a), outcome(twin, *a))
    same_outcome(outcome(cls, **dict(zip(names, a))),
                 outcome(twin, **dict(zip(names, a))))
    required = sum(f.default is dataclasses.MISSING for f in fields)
    same_outcome(outcome(cls, *a[:required]), outcome(twin, *a[:required]))
    for args, kwargs in ((a[:required - 1], {}), ((*a, 0), {}),
                         (a, {"no_such_field": 0}), (a, {names[0]: a[0]})):
        assert outcome(cls, *args, **kwargs)[:2] == ("raised", TypeError)
        assert outcome(twin, *args, **kwargs)[:2] == ("raised", TypeError)
    other = same_outcome(outcome(cls, *b), outcome(twin, *b))
    if built is None:
        return
    value, twin_value = built
    assert value == value and not value != value
    if other is not None:
        assert (value == other[0]) == (twin_value == other[1])
        assert (value != other[0]) == (twin_value != other[1])
    assert value != twin_value and (value == (1,)) is False

    field = data.draw(st.sampled_from(names), label="field")
    change = {field: b[names.index(field)]}
    same_outcome(outcome(replace, value, **change),
                 outcome(dataclasses.replace, twin_value, **change))

    for target in (value, twin_value):
        with pytest.raises(AttributeError):
            setattr(target, names[0], a[0])
        with pytest.raises(AttributeError):
            delattr(target, names[0])

    fresh = cls(*a)
    hash(value)
    assert pickle.dumps(value) == pickle.dumps(fresh)   # no kept hash
    for clone in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert type(clone) is cls
        assert clone == value and hash(clone) == hash(twin_value)
        assert repr(clone) == repr(twin_value)
