"""The package's immutable records are NamedTuples, and the validated ones
check their fields in `__new__`.

Every way of building a record again, `copy.copy`, `copy.deepcopy` and a
pickle round trip included, goes back through `__new__`, so the checks run
again and derived fields, such as the row spaces of the powers of a
`NilpotentOperator` and the characteristic polynomial of `FrobeniusData`
and its pieces, are derived again; only `NamedTuple._replace` and `_make` skip them, and the
package calls neither on a validated record.  A validated record keeps one
stored form per value, with a tuple of its own wherever a caller may pass a
list, a generator or another sequence, so it hashes and compares by its
fields: `Filtration` trims the index range it is given to the jumps, so a
wider range builds the same fields, and `verify_section` builds each
`FaceTransition` in lowest terms.  `Matrix` and `RatPoly` are the only
hand-written `__slots__` classes; they copy and pickle through their
second constructor, `_over`.
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

from wmtrop.cli import JobSpec, Report
from wmtrop.monodromy import (
    Filtration,
    FrobeniusData,
    NilpotentOperator,
    WeightDecomposition,
    WmcReport,
    monodromy_filtration,
)
from wmtrop.ratlin import DimensionMismatch, Matrix, RatPoly, Subspace, char_poly
from wmtrop.tropbundle import BundleData, FaceTransition, SectionReport, TropicalSection
from wmtrop.troplattice import (
    CellWidth,
    DualGraph,
    ModelDescriptor,
    QuotientModel,
    TropicalLattice,
)


def _tate() -> TropicalLattice:
    return TropicalLattice(Matrix([[2]]))


_SHIFT = Matrix([[0, 1, 0], [0, 0, F(1, 2)], [0, 0, 0]])

#: one builder per record type; each call builds equal fields from new objects
RECORDS = {
    "JobSpec": lambda: JobSpec("trop-model", {"alpha": "1"}),
    "Report": lambda: Report("trop-model", "pass", {"components": 2}, ("note",)),
    "WeightDecomposition": lambda: WeightDecomposition(2, {0: Subspace.full(2)}),
    "WmcReport": lambda: WmcReport(True, False, {0: [(0, 2)]}, [{"kind": "x"}]),
    "SectionReport": lambda: SectionReport(True, (), (FaceTransition(1, 1, 0, 0, 0, 1, 0, 1),)),
    "DualGraph": lambda: DualGraph((0, 1), ((0, 1, 2),)),
    "ModelDescriptor": lambda: ModelDescriptor(1, ((F(2),),), F(1), 2, 1, 4),
    "CellWidth": lambda: CellWidth(F(1, 2)),
    "TropicalLattice": _tate,
    "QuotientModel": lambda: QuotientModel(_tate(), CellWidth(1), 2, 1),
    "TropicalSection": lambda: TropicalSection(F(1), (1, 0), F(0), 1, F(1)),
    "BundleData": lambda: BundleData(_tate(), Matrix([[1]]), [F(1)], False),
    "FrobeniusData": lambda: FrobeniusData(Matrix([[1, 0], [0, 5]]), 5),
    "Subspace": lambda: Subspace.span(3, [[1, 2, 0], [0, F(1, 3), 1]]),
    "NilpotentOperator": lambda: NilpotentOperator(_SHIFT),
    "Filtration": lambda: monodromy_filtration(NilpotentOperator(_SHIFT)),
}


def _validated(cls) -> bool:
    """cls has a `__new__` of the package's own, not only the generated one."""
    return cls.__new__.__module__ == cls.__module__


#: the records whose class checks its fields in `__new__`, and a section
#: built from a list, which must store a tuple of its own
VALIDATED = {
    **{name: build for name, build in RECORDS.items() if _validated(type(build()))},
    "TropicalSection from a list": lambda: TropicalSection(F(1), [1, 0], F(0), 1, F(1)),
    "FrobeniusData with n": lambda: FrobeniusData(
        Matrix.diagonal([1, 5, 25]), 5, NilpotentOperator(Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
    ),
}


#: every way the tests build a value again
REBUILDS = (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)))


def _rebuilt_through_new(value, monkeypatch) -> list:
    """value rebuilt each way in REBUILDS, each checked to have called its
    class's `__new__` exactly once."""
    cls, built = type(value), []
    new = cls.__new__

    def counting(klass, *args, **kwargs):
        built.append(klass)
        return new(klass, *args, **kwargs)

    monkeypatch.setattr(cls, "__new__", counting)
    copies = []
    for rebuild in REBUILDS:
        built.clear()
        copies.append(rebuild(value))
        assert built == [cls]
    return copies


@pytest.mark.parametrize("name", RECORDS)
def test_record_semantics(name, monkeypatch):
    a, b = RECORDS[name](), RECORDS[name]()
    cls = type(a)
    assert cls.__name__ == name and issubclass(cls, tuple)

    for field in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        a.extra = 1

    assert a == b and not a != b
    try:
        expected = hash(tuple(b))
    except TypeError:  # a dict field: unhashable, as a frozen dataclass was
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected

    for again in _rebuilt_through_new(a, monkeypatch):
        assert type(again) is cls and again == a


@pytest.mark.parametrize("name", VALIDATED)
def test_validated_record_is_a_value(name):
    # a list, dict or set field could change after the checks ran, and would
    # leave the record unhashable
    value = VALIDATED[name]()
    hash(value)
    assert [f for f in value._fields if isinstance(getattr(value, f), (list, dict, set))] == []


#: slopes in the containers a caller may pass other than a tuple
SLOPES = {"list": lambda: [1, 0], "generator": lambda: (s for s in (1, 0))}


@pytest.mark.parametrize("kind", SLOPES)
def test_section_keeps_a_tuple_of_its_own(kind):
    slopes = SLOPES[kind]()
    s, expected = TropicalSection(F(1), slopes, F(0), 1, F(1)), RECORDS["TropicalSection"]()
    assert type(s.slopes) is tuple and s == expected and hash(s) == hash(expected)
    assert s.period_cells == 2
    if kind == "list":  # a bool appended afterwards does not reach the section
        slopes.append(True)
        assert s.slopes == (1, 0)


def test_no_mutable_defaults():
    assert Report._field_defaults == {"diagnostics": ()}
    assert WmcReport._field_defaults == {}
    with pytest.raises(TypeError):
        Report("trop-model", "error", diagnostics=("no payload",))


# the checks no other test reaches with its exact message
@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: TropicalLattice(Matrix([[1, 2]])), ValueError, "generator matrix must be square"),
        (lambda: BundleData(_tate(), Matrix.identity(2), [0]), ValueError,
         "sigma must be square of the lattice rank"),
        (lambda: BundleData(_tate(), Matrix([[1]]), [0, 0]), ValueError,
         "one trivialization valuation per generator required"),
        (lambda: TropicalSection(F(0), (1,), 0, 0, 0), ValueError, "cell width must be positive"),
        (lambda: FrobeniusData(Matrix([[1, 0]]), 5), DimensionMismatch,
         "Frobenius matrix must be square"),
        (lambda: FrobeniusData(Matrix([[1]]), 1), ValueError, "q must be an integer >= 2"),
        (lambda: FrobeniusData(Matrix([[1]]), F(5)), ValueError, "q must be an integer >= 2"),
        (lambda: FrobeniusData(Matrix([[1, 2], [2, 4]]), 5), ValueError,
         "Frobenius matrix must be invertible"),
        (lambda: TropicalSection(F(1), (True, False), F(0), 0, F(1)), ValueError,
         "slopes must be integers"),
        (lambda: TropicalSection(F(1), (1, True), 0, 0, 0), ValueError, "slopes must be integers"),
        (lambda: TropicalSection(F(1), (1,), 0, True, 0), ValueError,
         "slope increment must be an integer"),
        (lambda: TropicalSection(F(1), (1,), 0, F(1), 0), ValueError,
         "slope increment must be an integer"),
        (lambda: TropicalSection(F(1), (1,), 0, 1.0, 0), ValueError,
         "slope increment must be an integer"),
    ],
)  # fmt: skip
def test_validated_constructor_rejects(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message


#: one builder per hand-written class, and the fields derived from its
#: stored ones, which a rebuilt value must repeat
HAND_WRITTEN = {
    "Matrix": (lambda: Matrix([[1, F(1, 2)], [0, -3]]), lambda m: (m.row_tuples, m.rows, m.cols)),
    "RatPoly": (lambda: RatPoly([F(1, 2), 0, -3]), lambda p: (p.coeffs, p.degree)),
}


@pytest.mark.parametrize("name", HAND_WRITTEN)
def test_hand_written_class_copies_and_pickles(name):
    build, derived = HAND_WRITTEN[name]
    a = build()
    cls = type(a)
    assert cls.__name__ == name and "__dict__" not in dir(a)
    assert cls.__slots__ and not issubclass(cls, tuple)
    for rebuild in REBUILDS:
        again = rebuild(a)
        assert type(again) is cls and again == a and hash(again) == hash(a)
        assert derived(again) == derived(a)
        for slot in cls.__slots__:
            with pytest.raises(AttributeError, match=f"{name} is immutable"):
                setattr(again, slot, getattr(a, slot))


def test_filtration_copies_pickles_and_compares_across_ranges(monkeypatch):
    a = monodromy_filtration(NilpotentOperator(_SHIFT))
    lo, hi = a.lo, a.hi
    wider = Filtration(3, lo - 2, [a.at(j) for j in range(lo - 2, hi + 3)])
    assert a == wider and not a != wider and hash(a) == hash(wider)
    assert tuple(wider) == (3, lo, a.pieces) and a != Filtration.trivial(3)
    with pytest.raises(AttributeError):
        a.pieces = ()
    with pytest.raises(TypeError):  # a piece cannot be replaced after the checks
        a.pieces[-1] = Subspace.zero(3)

    for again in _rebuilt_through_new(a, monkeypatch):
        assert type(again) is Filtration and again == a and hash(again) == hash(a)
        assert all(again.at(j) == a.at(j) for j in range(lo - 1, hi + 2))


def test_frobenius_checks_keep_their_order():
    # square, then invertible, then q: the characteristic polynomial that
    # tests invertibility runs between the first two checks and the last,
    # by pieces or not, and an n that cannot give pieces changes nothing
    singular = Matrix([[1, 2], [2, 4]])
    shift = NilpotentOperator(Matrix([[0, 1], [0, 0]]))
    zero3 = NilpotentOperator(Matrix.zero(3, 3))
    swap = Matrix([[0, 1], [1, 0]])
    cases = [
        (lambda: FrobeniusData(Matrix([[0, 0]]), 1), DimensionMismatch,
         "Frobenius matrix must be square"),
        (lambda: FrobeniusData(Matrix([[0, 0]]), 5, shift), DimensionMismatch,
         "Frobenius matrix must be square"),
        (lambda: FrobeniusData(singular, 1), ValueError, "Frobenius matrix must be invertible"),
        (lambda: FrobeniusData(Matrix.zero(3, 3), F(5)), ValueError,
         "Frobenius matrix must be invertible"),
        # singular and commuting: the product of the pieces has constant term 0
        (lambda: FrobeniusData(Matrix.zero(3, 3), 5, zero3), ValueError,
         "Frobenius matrix must be invertible"),
        (lambda: FrobeniusData(Matrix.diagonal([0, 5]), 5, shift), ValueError,
         "Frobenius matrix must be invertible"),
        # n of another dimension: no pieces, and still invertibility first
        (lambda: FrobeniusData(singular, 5, zero3), ValueError,
         "Frobenius matrix must be invertible"),
        (lambda: FrobeniusData(singular, "x", shift), ValueError,
         "Frobenius matrix must be invertible"),
        (lambda: FrobeniusData(swap, True), ValueError, "q must be an integer >= 2"),
        (lambda: FrobeniusData(swap, "x", shift), ValueError, "q must be an integer >= 2"),
        (lambda: FrobeniusData(swap, 1.5, shift), ValueError, "q must be an integer >= 2"),
        (lambda: FrobeniusData(Matrix.diagonal([1, 5]), 1.5, shift), ValueError,
         "q must be an integer >= 2"),
        (lambda: FrobeniusData(Matrix.diagonal([1, 5]), F(5), shift), ValueError,
         "q must be an integer >= 2"),
    ]  # fmt: skip
    for build, error, message in cases:
        with pytest.raises(error) as err:
            build()
        assert type(err.value) is error and str(err.value) == message


def test_frobenius_data_derives_its_characteristic_polynomial(monkeypatch):
    phis = [
        Matrix([], cols=0),
        Matrix([[F(-2, 3)]]),
        Matrix([[1, 0], [0, 5]]),
        Matrix([[0, -5], [1, 1]]),
        Matrix([[F(1, 2), 3, 0], [1, F(-7, 4), 2], [0, 5, 9]]),
    ]
    for phi in phis:
        f = FrobeniusData(phi, 5)
        assert f.char_poly == char_poly(phi) and f == (phi, 5, char_poly(phi), None, None)
        for again in _rebuilt_through_new(f, monkeypatch):
            assert again.char_poly == char_poly(phi) and again == f
        monkeypatch.undo()


def test_frobenius_data_keeps_its_pieces(monkeypatch):
    # with a q-commuting n, char_poly is the product of the pieces on
    # ker N^(k+1) / ker N^k; an n that does not commute, or of another
    # dimension, gives no pieces; a copy hands n back and derives them again
    shift = NilpotentOperator(_SHIFT)  # Q^3 = ker N^3 > ker N^2 > ker N > 0
    p = Matrix.identity(3) + _SHIFT  # commutes with N, so N Phi = 5 Phi N
    phi = p * Matrix.diagonal([3, 15, 75]) * p.inverse()
    cases = [
        (shift, phi, (RatPoly([-3, 1]), RatPoly([-15, 1]), RatPoly([-75, 1]))),
        (NilpotentOperator(Matrix.zero(3, 3)), phi, (char_poly(phi),)),
        (NilpotentOperator(Matrix([], cols=0)), Matrix([], cols=0), ()),
        (shift, Matrix.diagonal([1, 2, 3]), None),
        (NilpotentOperator(Matrix.zero(2, 2)), phi, None),
    ]
    for n, phi, pieces in cases:
        f = FrobeniusData(phi, 5, n)
        assert f == (phi, 5, char_poly(phi), n, pieces) and f.n is n
        assert f.__getnewargs__() == (phi, 5, n)
        for again in _rebuilt_through_new(f, monkeypatch):
            assert again.pieces == pieces and again.char_poly == char_poly(phi)
            assert again.n == n and again == f and hash(again) == hash(f)
        monkeypatch.undo()


def test_nilpotent_operator_keeps_the_row_spaces_of_its_powers(monkeypatch):
    op = NilpotentOperator(_SHIFT)
    assert op.row_spaces == (
        Subspace.full(3),
        Subspace.span(3, [[0, 1, 0], [0, 0, 1]]),
        Subspace.span(3, [[0, 0, 1]]),
        Subspace.zero(3),
    )
    assert op.ranks == (3, 2, 1, 0) and op.__getnewargs__() == (_SHIFT,)
    for again in _rebuilt_through_new(op, monkeypatch):
        assert again.row_spaces == op.row_spaces and again.ranks == op.ranks
        assert again.row_spaces is not op.row_spaces
