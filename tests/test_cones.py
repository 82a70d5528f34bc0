from fractions import Fraction

import pytest

from betticone import hyper_fixed, hyper_total, regular
from betticone.errors import (ConeInputError, InternalInconsistencyError, NotInConeError,
                              bounded)
from betticone.hyper_fixed import FixedConeParams
from betticone.sequences import BettiVector, TailPeriodicSequence


def test_combine_edge_cases():
    cases = [(regular.cone(3), BettiVector(3, (0,) * 4), 4),
             (hyper_total.cone(3), TailPeriodicSequence.zero(), 5),
             (hyper_fixed.cone(FixedConeParams(3, 4)), TailPeriodicSequence.zero(), 5),
             (hyper_fixed.cone(FixedConeParams(3, 2)), TailPeriodicSequence.zero(), 4)]
    for cone, zero, count in cases:
        assert len(cone.rays) == count
        combined = cone.combine((Fraction(0),) * count)
        assert type(combined) is type(zero) and combined == zero
        for wrong in (count - 1, count + 1):
            with pytest.raises(ConeInputError):
                cone.combine((Fraction(1),) * wrong)


def test_not_in_cone_error_names_its_first_violation():
    violations = [("chi[0,1]", Fraction(-1, 2)), ("chi[1,1]", Fraction(-2))]
    err = NotInConeError.naming_first("the regular cone", violations)
    assert str(err) == "not in the regular cone: chi[0,1] = -1/2"
    assert err.violations == violations
    plain = NotInConeError("a message of the caller's own")
    assert str(plain) == "a message of the caller's own" and plain.violations == []
    with pytest.raises(InternalInconsistencyError):
        NotInConeError.naming_first("the regular cone", [])


def test_bounded_counts_digits_per_part():
    assert bounded("-123/45") == "-123/45"
    integer = "-" + "7" * 4000
    assert bounded(integer) == integer[:40] + "... (4000 digits)"
    fraction = "-" + "7" * 50 + "/" + "3" * 45
    assert bounded(fraction) == fraction[:40] + "... (50/45 digits)"
