import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import betticone
from betticone import hyper_fixed, hyper_total, regular, sequences
from betticone.cones import Cone
from betticone.errors import ConeInputError, MalformedInputError
from betticone.hyper_fixed import FixedConeParams
from betticone.sequences import (BettiVector, TailPeriodicSequence, as_fraction, embed,
                                 rational_str, sequence_from_json, sequence_to_json)

from reference_sequences import constant_tail, evaluate, ray, rho_vector, row, tail_sum

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)


def tail_seq(head, even, odd):
    return TailPeriodicSequence(len(head), tuple(map(Fraction, head)),
                                Fraction(even), Fraction(odd))


class TestRationalStrings:
    def test_round_trip(self):
        for text in ["0", "-7", "19/20", "-3/4"]:
            assert rational_str(as_fraction(text)) == text

    def test_rejects_floats_and_garbage(self):
        for bad in ["0.5", "1e3", "1/0x2", "", "one", 1.5, None]:
            with pytest.raises(MalformedInputError):
                as_fraction(bad)

    @pytest.mark.parametrize("text, value", [("+5", Fraction(5)), ("-0/3", Fraction(0)),
                                             ("007", Fraction(7)), ("6/4", Fraction(3, 2)),
                                             (" -12/8 ", Fraction(-3, 2))])
    def test_signs_zeros_and_unreduced_strings(self, text, value):
        got = as_fraction(text)
        assert type(got) is Fraction and got == value

    @pytest.mark.parametrize("text, message", [
        ("1/0", "zero denominator in '1/0'"),
        ("7" * 4301, "rational string of 4301 characters has too many digits"),
        ("1/" + "7" * 4301, "rational string of 4303 characters has too many digits"),
    ])
    def test_refusals_name_the_zero_denominator_or_the_digit_count(self, text, message):
        # 4,301 digits is one past the interpreter's default int-string limit
        with pytest.raises(MalformedInputError) as refused:
            as_fraction(text)
        assert str(refused.value) == message


class TestTailPeriodicSequence:
    def test_entry_by_convention(self):
        s = tail_seq([1, 3], 4, 5)
        assert [s.entry(i) for i in range(6)] == [1, 3, 4, 5, 4, 5]

    def test_entry_example_from_prefix_sums(self):
        # expansion of the prefix-sum transform of (1,3,3,1): 1,3,4,4,4,...
        s = tail_seq([1, 3], 4, 4)
        assert s.entry(7) == 4

    def test_entry_below_stab_is_head(self):
        s = tail_seq([7, 9, 11], 0, 0)
        assert s.entry(0) == 7 and s.entry(2) == 11

    def test_entry_rejects_negative_index(self):
        with pytest.raises(ConeInputError):
            tail_seq([1], 2, 3).entry(-1)

    def test_canonical_minimal_stab(self):
        # head entries that the tail reproduces get absorbed
        s = TailPeriodicSequence(4, (Fraction(1), Fraction(0), Fraction(1), Fraction(0)),
                                 Fraction(1), Fraction(0))
        assert s.stab == 0 and s.head == ()
        assert [s.entry(i) for i in range(4)] == [1, 0, 1, 0]

    def test_canonicalization_is_idempotent_and_preserves_entries(self):
        raw = TailPeriodicSequence(3, (Fraction(2), Fraction(5), Fraction(5)),
                                   Fraction(7), Fraction(5))
        again = TailPeriodicSequence(raw.stab, raw.head, raw.tail_even, raw.tail_odd)
        assert raw == again
        assert raw.prefix(8) == (2, 5, 5, 5, 7, 5, 7, 5)

    def test_addition_is_entrywise(self):
        a = tail_seq([1], 2, 3)
        b = tail_seq([0, 1, 5], 0, 1)
        total = tail_sum(a, b)
        assert total.prefix(6) == tuple(
            a.entry(i) + b.entry(i) for i in range(6))

    def test_structural_equality_is_value_equality(self):
        assert tail_seq([], 1, 1) == constant_tail([], 1)
        assert tail_seq([1], 1, 1) == tail_seq([], 1, 1)


class TestBettiVector:
    def test_length_checked(self):
        with pytest.raises(ConeInputError):
            BettiVector(2, (Fraction(1), Fraction(1)))

    def test_embed_pads_with_a_zero_tail(self):
        s = embed(BettiVector.of(["1", "3", "3", "1"]))
        assert s.tail_even == 0 and s.tail_odd == 0
        assert s.prefix(6) == (1, 3, 3, 1, 0, 0)

    def test_embed_truncate_round_trip(self):
        v = BettiVector.of(["1", "3", "3", "1"])
        assert BettiVector.of(embed(v).prefix(4)) == v


class TestChi:
    def test_alternating_signs(self):
        assert row((1, 4, None), 5) == (0, 1, -1, 1, -1, 0)

    def test_hand_values(self):
        assert evaluate((0, 2, None), BettiVector.of([1, 2, 1])) == 0
        assert evaluate((1, 3, None), BettiVector.of([1, 3, 3, 1])) == 1

    def test_kronecker_pairing_with_rays(self):
        # chi[j+1, n] picks out the rho_j coefficient
        n = 5
        for i in range(-1, n):
            for j in range(0, n + 1):
                expected = 1 if j == i + 1 else 0
                assert evaluate((j, n, None), rho_vector(i, n)) == expected

    def test_empty_range_is_zero(self):
        assert row((3, 2, None), 4) == (0,) * 5

    def test_invalid_range(self):
        with pytest.raises(ConeInputError):
            row((3, 1, None), 4)
        with pytest.raises(ConeInputError):
            row((-1, 2, None), 4)

    @given(st.lists(rationals, min_size=5, max_size=9),
           st.integers(0, 3), st.integers(0, 4))
    def test_recursion(self, entries, i, extra):
        j = i + extra
        w = BettiVector.of(entries)
        assert evaluate((i, j, None), w) == w[i] - evaluate((i + 1, j, None), w)


class TestXi:
    def test_definition_odd_and_even(self):
        # i - j odd: -eps_j + d*chi[i, j-1]
        assert row((0, 3, 2), 3) == (2, -2, 2, -1)
        # i - j even: (d-1) eps_j + d*chi[i, j-1]
        assert row((0, 2, 3), 2) == (3, -3, 2)

    def test_hand_values(self):
        assert evaluate((0, 2, 3), ray("tau_d", 1, 2, 3)) == 0
        assert evaluate((0, 2, 3), embed(rho_vector(-1, 2))) == 3

    def test_degenerate_range_leaves_endpoint(self):
        w = tail_seq([1, 2], 7, 7)
        assert evaluate((2, 2, 5), w) == 4 * 7

    def test_requires_multiplicity(self):
        with pytest.raises(ConeInputError):
            row((0, 2, 1), 2)

    @given(st.integers(0, 3), st.integers(0, 4), st.integers(2, 7))
    def test_chi_identity(self, i, extra, d):
        # xi = d*chi[i,j] + (d-1)*eps_j (odd gap) or d*chi[i,j] - eps_j (even)
        j = i + extra
        expected = [d * c for c in row((i, j, None), j)]
        expected[j] += d - 1 if (j - i) % 2 == 1 else -1
        assert row((i, j, d), j) == tuple(expected)


class TestLinearFunctional:
    """Each facet window is a linear functional; `Cone.values` evaluates
    the windows of a cone on its entries 0..n."""

    @given(st.lists(rationals, min_size=6, max_size=6),
           st.lists(rationals, min_size=6, max_size=6),
           rationals, rationals)
    @settings(max_examples=60)
    def test_linearity(self, xs, ys, a, b):
        values = hyper_fixed.cone(FixedConeParams(5, 3)).values
        x = BettiVector.of(xs)
        y = BettiVector.of(ys)
        assert values(tuple(a * p + b * q for p, q in zip(x.entries, y.entries))) == [
            a * u + b * v for u, v in zip(values(x.entries), values(y.entries))]

    def test_evaluation_on_tail(self):
        w = tail_seq([3], 10, 20)
        assert evaluate((0, 5, None), w) == 3 - 20 + 10 - 20 + 10 - 20
        cone = hyper_total.cone(5)
        assert cone.values(w.prefix(6)) == [evaluate(window, w) for window in cone.windows]


class TestRays:
    def test_rho_minus_one(self):
        assert ray("rho", -1, 4).prefix(6) == (1, 0, 0, 0, 0, 0)

    def test_tau_inf(self):
        assert ray("tau_inf", 2, 4).prefix(6) == (0, 0, 1, 1, 1, 1)

    def test_tau_d(self):
        s = ray("tau_d", 1, 2, 3)
        assert s.prefix(4) == (Fraction(1, 3), 1, 1, 1)
        t = ray("tau_d", 0, 2, 3)
        assert t.prefix(4) == (Fraction(2, 3), 1, 1, 1)

    def test_range_validation(self):
        with pytest.raises(ConeInputError):
            ray("rho", 4, 4)
        with pytest.raises(ConeInputError):
            ray("tau_inf", 0, 4)
        with pytest.raises(ConeInputError):
            ray("tau_d", 1, 2, 1)
        with pytest.raises(ConeInputError):
            ray("sigma", 0, 4)

    @given(st.integers(2, 8), st.integers(2, 40), st.booleans())
    def test_tau_d_approaches_tau_inf(self, n, d, upper):
        i = n - 2 if upper else n - 1
        td = ray("tau_d", i, n, d)
        ti = ray("tau_inf", i, n)
        diffs = [(k, td.entry(k) - ti.entry(k))
                 for k in range(n + 3) if td.entry(k) != ti.entry(k)]
        assert [k for k, _ in diffs] == [n - 2]
        assert abs(diffs[0][1]) == Fraction(1, d)


class TestJsonSchema:
    def test_finite_round_trip(self):
        v = BettiVector.of(["1", "3", "3", "1"])
        data = sequence_to_json(v)
        assert data == {"kind": "finite", "n": 3, "entries": ["1", "3", "3", "1"]}
        assert sequence_from_json(data) == v

    def test_tail_round_trip(self):
        s = tail_seq([1, 3], 4, 5)
        data = sequence_to_json(s)
        assert data == {"kind": "tail", "stab": 2, "head": ["1", "3"],
                        "tail_even": "4", "tail_odd": "5"}
        assert sequence_from_json(data) == s

    def test_non_canonical_tail_input_is_canonicalized(self):
        data = {"kind": "tail", "stab": 2, "head": ["1", "4"],
                "tail_even": "1", "tail_odd": "4"}
        assert sequence_from_json(data).stab == 0

    @pytest.mark.parametrize("bad", [
        42,
        {"kind": "finite", "entries": "1,2"},
        {"kind": "finite", "n": 5, "entries": ["1", "2"]},
        {"kind": "finite", "entries": ["0.5"]},
        {"kind": "tail", "head": ["1"], "tail_even": "1"},
        {"kind": "tail", "stab": 3, "head": ["1"], "tail_even": "1", "tail_odd": "1"},
        {"kind": "spiral"},
    ])
    def test_malformed(self, bad):
        with pytest.raises(MalformedInputError):
            sequence_from_json(bad)

    @pytest.mark.parametrize("bad", [
        {"kind": "finite", "entries": ["1/0", "1"]},
        {"kind": "finite", "entries": ["7" * 4301, "1"]},
        {"kind": "finite", "entries": ["１", "1"]},  # FULLWIDTH DIGIT ONE
        {"kind": "finite", "n": True, "entries": ["1", "1"]},
        {"kind": "tail", "stab": True, "head": ["1"], "tail_even": "1", "tail_odd": "0"},
    ], ids=["zero_denominator", "huge_integer", "non_ascii_digit", "bool_n", "bool_stab"])
    def test_input_boundary_defects(self, bad):
        # each was once accepted or escaped as another exception type
        with pytest.raises(MalformedInputError) as info:
            sequence_from_json(bad)
        message = str(info.value)
        assert "\n" not in message and len(message) < 200


def _values():
    """A value of each immutable type, and a rebuilt equal one."""
    from betticone.cones import Decomposition, MembershipReport, Triangulation
    from betticone.pure import DegreeSequence
    from betticone.regular import RegularDecomposition, ShapeClass
    third = (Fraction(1), Fraction(1, 3), Fraction(0))
    build = [
        lambda: BettiVector(2, ["1", "1/3", "0"]),
        lambda: tail_seq([1, 2, 5], 5, 0),
        lambda: MembershipReport(False, (("chi[0,1]", Fraction(-1)),)),
        lambda: Triangulation("omit_odd", ((0, 1), (0, 2)), (2, 1)),
        lambda: Decomposition(("rho[-1]", "rho[0]"), third[:2], (0, 1), "simplicial"),
        lambda: RegularDecomposition(2, third),
        lambda: ShapeClass(True, True, 1, False, RegularDecomposition(2, third)),
        lambda: FixedConeParams(3, 4),
        lambda: DegreeSequence((0, 1, 3)),
    ]
    return [(make(), make()) for make in build]


class TestValueTypes:
    @pytest.mark.parametrize("value, twin", _values(), ids=lambda v: type(v).__name__)
    def test_immutable_with_structural_equality_and_hashing(self, value, twin):
        assert value is not twin and value == twin and hash(value) == hash(twin)
        assert not value != twin
        assert repr(value) == repr(twin) and repr(value).startswith(type(value).__name__ + "(")
        for name in value.__slots__:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert value == twin and pickle.loads(pickle.dumps(value)) == value

    @pytest.mark.parametrize("value, twin", _values(), ids=lambda v: type(v).__name__)
    def test_fields_are_read_as_one_tuple_even_when_there_is_one(self, value, twin):
        # equality and hashing read the fields in one attrgetter call, which
        # gives a lone field bare; the read still gives the field tuple
        fields = tuple(getattr(value, name) for name in value._field_names)
        assert value._fields() == fields and hash(value) == hash(fields)
        assert type(value)(*twin._fields()) == value

    @pytest.mark.parametrize("value, twin", _values(), ids=lambda v: type(v).__name__)
    def test_a_value_holds_only_its_fields(self, value, twin):
        # no private slot: a value keeps nothing derived from its fields
        assert type(value).__slots__ == type(value)._field_names
        assert not hasattr(value, "__dict__")

    def test_equal_fields_of_another_type_are_not_equal(self):
        from betticone.regular import RegularDecomposition
        v = BettiVector.of([1, 2, 1])
        assert v != RegularDecomposition(v.n, v.entries) and v != (v.n, v.entries)
        assert len({v, BettiVector.of([1, 2, 1]), embed(v)}) == 2

    def test_a_cone_is_immutable_and_equal_only_to_itself(self):
        # two cones built directly with equal fields are still two cones
        built = [Cone(*hyper_total.cone(3)._fields()) for _ in range(2)]
        assert built[0]._fields() == built[1]._fields() and built[0].names == built[1].names
        assert built[0] != built[1] and built[0] == built[0] and len(set(built)) == 2
        # a builder shares one cone per key, and no field or derived slot
        # of it can be written, so no caller can change it for the others
        for builder, key in ((regular.cone, 3), (hyper_total.cone, 3),
                             (hyper_fixed.cone, FixedConeParams(3, 3))):
            cone = builder(key)
            assert builder(key) is cone and not hasattr(cone, "__dict__")
            derived = [name for name in Cone.__slots__ if name.startswith("_")]
            assert derived and set(derived) | set(cone._field_names) == set(Cone.__slots__)
            # every slot holds tuples, numbers, strings or None (and the
            # enclosing cone), so nothing in it can be changed in place
            hash(tuple(getattr(cone, name) for name in Cone.__slots__))
            for name in Cone.__slots__:
                before = getattr(cone, name)
                with pytest.raises(AttributeError):
                    setattr(cone, name, None)
                with pytest.raises(AttributeError):
                    delattr(cone, name)
                assert getattr(cone, name) is before
            for name in ("names", "relation", "windows", "extra"):
                with pytest.raises(AttributeError):
                    setattr(cone, name, ())


def _field_only_types():
    from betticone.cones import Decomposition, MembershipReport, Triangulation
    from betticone.regular import RegularDecomposition, ShapeClass
    return [MembershipReport, Triangulation, Decomposition, RegularDecomposition, ShapeClass]


@pytest.mark.parametrize("cls", _field_only_types(), ids=lambda cls: cls.__name__)
def test_a_field_only_type_takes_exactly_its_fields(cls):
    # the type inherits Frozen's constructor, which stores its fields by
    # position and refuses a wrong count naming the type
    assert "__init__" not in vars(cls)
    names = cls._field_names
    assert names == cls.__slots__ and "__dict__" not in names
    value = cls(*range(len(names)))
    assert [getattr(value, name) for name in names] == list(range(len(names)))
    for count in (0, len(names) - 1, len(names) + 1):
        with pytest.raises(TypeError) as caught:
            cls(*range(count))
        assert str(caught.value) == (f"{cls.__name__} takes {len(names)} fields "
                                     f"({', '.join(names)}), got {count}")


def test_a_cone_pickles_and_prints_without_its_derived_slots():
    # the names, scaled corners and relation a cone derives are private
    # slots, which are no fields: pickling rebuilds them in the constructor
    cone = hyper_fixed.cone(FixedConeParams(4, 3))
    rebuilt = pickle.loads(pickle.dumps(cone))
    assert rebuilt is not cone and rebuilt.within is not cone.within
    assert (rebuilt.title, rebuilt.n, rebuilt.spans, rebuilt.tail, rebuilt.corners) == (
        cone.title, cone.n, cone.spans, cone.tail, cone.corners)
    assert rebuilt.within.spans == cone.within.spans and rebuilt.names == cone.names
    assert rebuilt._scaled_relation == cone._scaled_relation and rebuilt.relation == cone.relation
    assert "_names" not in repr(cone) and "_scaled" not in repr(cone)


def test_public_surface():
    assert betticone.__all__ == [
        "BettiVector", "TailPeriodicSequence", "ConeInputError", "InternalInconsistencyError",
        "MalformedInputError", "NotInConeError", "as_fraction", "embed", "rational_str",
        "sequence_from_json", "sequence_to_json", "__version__"]
    assert all(hasattr(betticone, name) for name in betticone.__all__)


def _entry_forms(rng, value: Fraction) -> list:
    """``value`` in each form the reader takes: its canonical string, then
    padded, signed, zero-led or unreduced strings, and an int or a
    `Fraction` as they are."""
    p, q = value.numerator, value.denominator
    k = rng.randint(2, 5)
    sign = "-" if p < 0 else rng.choice(["", "+"])
    forms = [rational_str(value), f" {rational_str(value)}\t", f"{sign}0{abs(p) * k}/{q * k}",
             f"{sign}{abs(p)}" if q == 1 else f"{sign}{abs(p) * k}/0{q * k}", value]
    return forms + ([p] if q == 1 else []) + (["-0", "0/5", "+000"] if p == 0 else [])


def _assert_read(cone, w, entries):
    nums, q = cone._read(w)
    assert q == math.lcm(*(e.denominator for e in entries)), (w, cone.n)
    assert len(nums) == len(entries), (w, cone.n)
    assert all(type(c) is int and Fraction(c, q) == e for c, e in zip(nums, entries)), (w, cone.n)


def _entries(rng, kind: str, count: int) -> list:
    """Seeded, tie-heavy or hostile entries: canonical strings of random
    rationals, a few values repeated, or each value in a random form."""
    if kind == "tie":
        return [rng.choice(["0", "1", "1/2", "2/4", 1, Fraction(1, 2)]) for _ in range(count)]
    values = [Fraction(rng.randint(-30, 30), rng.choice([1, 1, 2, 3, 4, 6, 7, 12, 35]))
              for _ in range(count)]
    if kind == "seeded":
        return [rational_str(v) for v in values]
    return [rng.choice(_entry_forms(rng, v)) for v in values]


class TestTheRead:
    @pytest.mark.parametrize("kind", ["seeded", "tie", "hostile"])
    def test_the_read_is_entries_0_to_n_over_their_least_common_denominator(self, kind):
        # `Cone._read` is the one place a point becomes integers: each
        # numerator c over q is its entry, and q is the lcm of the
        # denominators of exactly entries 0..n, however they were written
        rng = random.Random(f"read-{kind}")
        for _ in range(120):
            v = BettiVector.of(_entries(rng, kind, rng.randint(1, 9)))
            _assert_read(regular.cone(v.n), v, v.entries)
            head, even, odd = _entries(rng, kind, rng.randint(0, 8)), *_entries(rng, kind, 2)
            w = TailPeriodicSequence(len(head), head, even, odd)
            # n from 2 up to past the stab: a head past n, a tail that no
            # entry 0..n takes, then both tails among entries 0..n
            for n in range(2, w.stab + 4):
                _assert_read(hyper_total.cone(n), w, [w.entry(i) for i in range(n + 1)])

    def test_entries_read_as_the_fractions_their_forms_denote(self):
        rng = random.Random("read-forms")
        for _ in range(300):
            value = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
            for form in _entry_forms(rng, value):
                entry = BettiVector.of([form]).entries[0]
                assert type(entry) is Fraction and entry == value, (form, value)
                assert (entry.numerator, entry.denominator) == (value.numerator, value.denominator)

    def test_the_coprime_build_is_the_reduced_fraction(self):
        rng = random.Random("coprime")
        pairs = [(0, 1), (1, 1), (-1, 1), (7, 12), (-7, 12), (10**80 + 1, 10**80)]
        pairs += [(rng.randint(-10**30, 10**30), rng.randint(1, 10**30)) for _ in range(500)]
        for a, b in pairs:
            g = math.gcd(a, b)
            a, b = a // g, b // g
            got, want = sequences._coprime(a, b), Fraction(a, b)
            assert type(got) is Fraction and got == want
            assert (got.numerator, got.denominator) == (a, b)
            assert hash(got) == hash(want) and repr(got) == repr(want)
            assert pickle.loads(pickle.dumps(got)) == want and got + 0 == want

    def test_a_value_built_from_fractions_keeps_them(self):
        given = [Fraction(1, 3), Fraction(-2, 5), Fraction(10**40 + 1, 10**40), Fraction(7)]
        v = BettiVector(3, given)
        assert all(v.entries[k] is given[k] for k in range(4))
        w = TailPeriodicSequence(4, given, given[1], given[0])
        assert all(w.head[k] is given[k] for k in range(4))
        assert w.tail_even is given[1] and w.tail_odd is given[0]

    def test_a_prefix_is_the_entries_one_by_one(self):
        rng = random.Random("prefix")
        for _ in range(100):
            head = _entries(rng, "tie", rng.randint(0, 7))
            w = TailPeriodicSequence(len(head), head, *_entries(rng, "seeded", 2))
            for length in range(-2, w.stab + 5):
                assert w.prefix(length) == tuple(w.entry(i) for i in range(length)), (w, length)
