"""T-norm/t-conorm families: exact values, axioms, closed forms, duality."""

import itertools
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from cohere import (
    DRASTIC,
    HAMACHER0,
    INF,
    LUKASIEWICZ,
    MINIMUM,
    PRODUCT,
    OperatorFamily,
    ProbabilityRangeError,
    SizeLimitError,
    hamacher,
    hamacher0_conary,
    hamacher0_nary,
    in_l_gamma_qd,
    in_u_gamma_qd,
    or_rule_bounds,
    qd_bounds,
    tconorm,
    tnorm,
)
from cohere.tnorms import as_unit

from helpers import (
    reference_hamacher0_conary,
    reference_in_l_gamma_qd,
    reference_in_u_gamma_qd,
    reference_tconorm,
)

FAMILIES = [MINIMUM, PRODUCT, LUKASIEWICZ, DRASTIC, HAMACHER0,
            hamacher(Fr(1, 2)), hamacher(1), hamacher(2), hamacher(INF)]

units = st.fractions(min_value=0, max_value=1, max_denominator=8)


class TestBinaryValues:
    def test_lukasiewicz(self):
        assert tnorm(LUKASIEWICZ, [Fr(7, 10), Fr(3, 5)]) == Fr(3, 10)
        assert tconorm(LUKASIEWICZ, [Fr(1, 2), Fr(1, 2)]) == 1

    def test_hamacher0(self):
        assert tnorm(HAMACHER0, [Fr(1, 2), Fr(1, 2)]) == Fr(1, 3)
        assert tconorm(HAMACHER0, [Fr(1, 2), Fr(1, 2)]) == Fr(2, 3)

    @given(units)
    def test_hamacher0_zero_absorbs(self, y):
        assert tnorm(HAMACHER0, [Fr(0), y]) == 0

    @given(units)
    def test_hamacher0_conorm_one_absorbs(self, y):
        assert tconorm(HAMACHER0, [Fr(1), y]) == 1

    @given(units, units)
    def test_hamacher_one_is_product(self, x, y):
        assert tnorm(hamacher(1), [x, y]) == x * y
        assert tconorm(hamacher(1), [x, y]) == x + y - x * y

    @given(units, units)
    def test_hamacher_inf_is_drastic(self, x, y):
        assert tnorm(hamacher(INF), [x, y]) == tnorm(DRASTIC, [x, y])
        assert tconorm(hamacher(INF), [x, y]) == tconorm(DRASTIC, [x, y])


class TestAxioms:
    @pytest.mark.parametrize("family", FAMILIES, ids=str)
    @given(x=units, y=units, z=units)
    @settings(max_examples=40)
    def test_tnorm_axioms(self, family, x, y, z):
        assert tnorm(family, [x, y]) == tnorm(family, [y, x])
        assert tnorm(family, [x, tnorm(family, [y, z])]) == tnorm(
            family, [tnorm(family, [x, y]), z]
        )
        if y <= z:
            assert tnorm(family, [x, y]) <= tnorm(family, [x, z])
        assert tnorm(family, [x, Fr(1)]) == x

    @pytest.mark.parametrize("family", FAMILIES, ids=str)
    @given(x=units, y=units, z=units)
    @settings(max_examples=40)
    def test_tconorm_axioms(self, family, x, y, z):
        assert tconorm(family, [x, y]) == tconorm(family, [y, x])
        assert tconorm(family, [x, tconorm(family, [y, z])]) == tconorm(
            family, [tconorm(family, [x, y]), z]
        )
        if y <= z:
            assert tconorm(family, [x, y]) <= tconorm(family, [x, z])
        assert tconorm(family, [x, Fr(0)]) == x


class TestNAry:
    def test_single_argument_passthrough(self):
        for family in FAMILIES:
            assert tnorm(family, [Fr(2, 7)]) == Fr(2, 7)
            assert tconorm(family, [Fr(2, 7)]) == Fr(2, 7)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tnorm(MINIMUM, [])
        with pytest.raises(ValueError):
            tconorm(MINIMUM, [])

    def test_out_of_range_rejected(self):
        with pytest.raises(ProbabilityRangeError):
            tnorm(MINIMUM, [Fr(3, 2)])

    def test_strings_obey_the_exponent_cap(self):
        # Fraction would build 10**1000000 first, taking a third of a second.
        assert as_unit("1e-3") == Fr(1, 1000)
        assert hamacher("5e-1") == hamacher(Fr(1, 2))
        with pytest.raises(SizeLimitError, match="decimal exponent beyond 4300"):
            as_unit("1e-1000000")
        with pytest.raises(SizeLimitError, match="decimal exponent beyond 4300"):
            hamacher("1e-1000000")

    def test_floats_are_refused(self):
        # A float's binary expansion is not the decimal written: 0.1 would be
        # 3602879701896397/36028797018963968.
        with pytest.raises(TypeError, match=r"value is the float 0\.1;"):
            as_unit(0.1)
        with pytest.raises(TypeError, match=r"args\[1\] is the float 0\.5;"):
            tnorm(PRODUCT, [Fr(1, 2), 0.5])
        with pytest.raises(TypeError, match=r"args\[0\] is the float 0\.25;"):
            tconorm(LUKASIEWICZ, [0.25])
        with pytest.raises(TypeError, match=r"hamacher parameter is the float 2\.0;"):
            hamacher(2.0)
        assert as_unit(1) == 1 and as_unit("0.1") == Fr(1, 10)

    @given(st.lists(units, min_size=2, max_size=6))
    @settings(max_examples=60)
    def test_closed_forms_match_folds(self, args):
        assert hamacher0_nary(args) == tnorm(HAMACHER0, args)
        assert hamacher0_conary(args) == tconorm(HAMACHER0, args)

    def test_closed_form_values(self):
        third = [Fr(1, 2)] * 3
        assert hamacher0_nary(third) == Fr(1, 4)
        assert hamacher0_conary(third) == Fr(3, 4)
        assert hamacher0_nary([Fr(1)] * 3) == 1
        assert hamacher0_conary([Fr(0)] * 2) == 0

    @given(st.lists(units, min_size=1, max_size=5))
    @settings(max_examples=60)
    def test_generator_identity(self, args):
        # additive generator t(x) = (1-x)/x with pseudo-inverse 1/(1+s);
        # a zero argument sends the generator sum to its infinite limit
        if any(a == 0 for a in args):
            assert hamacher0_nary(args) == 0
        else:
            total = sum((1 - a) / a for a in args)
            assert hamacher0_nary(args) == 1 / (1 + total)


class TestDuality:
    @pytest.mark.parametrize("family", FAMILIES, ids=str)
    @given(st.lists(units, min_size=1, max_size=4))
    @settings(max_examples=40)
    def test_complementation(self, family, args):
        assert reference_tconorm(family, args) == tconorm(family, args)

    def test_spot_value(self):
        assert reference_tconorm(HAMACHER0, [Fr(1, 2), Fr(1, 2)]) == Fr(2, 3)

    def test_derived_values_match_direct_formulas(self):
        # Every fraction with denominator 1-5, 7 or 9; one and two arguments
        # range over all of it, three and four over its halves and thirds.
        grid = sorted({Fr(n, d) for d in (1, 2, 3, 4, 5, 7, 9) for n in range(d + 1)})
        coarse = [v for v in grid if 6 % v.denominator == 0]
        families = [MINIMUM, PRODUCT, LUKASIEWICZ, DRASTIC] + [
            hamacher(lam) for lam in (0, Fr(1, 3), 1, 2, INF)
        ]
        compared = 0
        for k, values in ((1, grid), (2, grid), (3, coarse), (4, coarse)):
            for args in itertools.product(values, repeat=k):
                for family in families:
                    assert tconorm(family, args) == reference_tconorm(family, args)
                conorm = reference_hamacher0_conary(args)
                assert hamacher0_conary(args) == conorm
                assert qd_bounds(args).hi == reference_tconorm(LUKASIEWICZ, args)
                assert or_rule_bounds(args).hi == conorm
                for gamma in values:
                    assert in_l_gamma_qd(args, gamma) == reference_in_l_gamma_qd(args, gamma)
                    assert in_u_gamma_qd(args, gamma) == reference_in_u_gamma_qd(args, gamma)
                compared += 1
        assert compared == 23 + 23**2 + 5**3 + 5**4


class TestOrdering:
    @given(units, units)
    def test_tnorm_chain(self, x, y):
        # drastic <= Lukasiewicz <= product <= Hamacher(0) <= minimum;
        # the Hamacher family decreases in its parameter, so the 0 member
        # dominates the product.
        args = [x, y]
        td = tnorm(DRASTIC, args)
        tl = tnorm(LUKASIEWICZ, args)
        tp = tnorm(PRODUCT, args)
        th = tnorm(HAMACHER0, args)
        tm = tnorm(MINIMUM, args)
        assert td <= tl <= tp <= th <= tm

    @given(units, units)
    def test_tconorm_chain(self, x, y):
        args = [x, y]
        sm = tconorm(MINIMUM, args)
        sh = tconorm(HAMACHER0, args)
        sp = tconorm(PRODUCT, args)
        sl = tconorm(LUKASIEWICZ, args)
        sd = tconorm(DRASTIC, args)
        assert sm <= sh <= sp <= sl <= sd

    @given(units, units)
    def test_lukasiewicz_hamacher_bridge(self, x, y):
        args = [x, y]
        assert tnorm(LUKASIEWICZ, args) <= tnorm(HAMACHER0, args) <= tconorm(
            HAMACHER0, args
        )


class TestLipschitz:
    @given(units, units, units)
    def test_hamacher0_is_1_lipschitz(self, x1, x2, y):
        if x1 > x2:
            x1, x2 = x2, x1
        assert tnorm(HAMACHER0, [x2, y]) - tnorm(HAMACHER0, [x1, y]) <= x2 - x1


class TestFamilyValidation:
    def test_negative_parameter_rejected(self):
        with pytest.raises(ValueError):
            hamacher(Fr(-1, 2))

    def test_parameter_on_plain_family_rejected(self):
        with pytest.raises(ValueError):
            OperatorFamily("product", Fr(1, 2))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            OperatorFamily("frank")
