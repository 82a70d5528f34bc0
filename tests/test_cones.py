from fractions import Fraction

import pytest

from betticone import hyper_fixed, hyper_total, regular
from betticone.errors import ConeInputError
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
