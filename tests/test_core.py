from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from cpv.core import (
    ChoiceRule,
    InputError,
    ProfileSet,
    ResourceError,
    TypeSpace,
    product_factorization,
)

from corpus import profile_set, profiles_of


def space_2x2() -> TypeSpace:
    return TypeSpace.shared(2, ("A", "B"))


class TestIndexing:
    def test_identity_case(self):
        s = space_2x2()
        assert s.index((0, 0)) == 0
        assert s.profile(0) == (0, 0)

    def test_agent_one_most_significant(self):
        s = space_2x2()
        assert s.index((1, 0)) == 2

    def test_positional_arithmetic(self):
        # independent oracle: plain base-9 positional arithmetic
        s = TypeSpace.shared(3, tuple(str(i) for i in range(9)))
        expected = 5 * 81 + 8 * 9 + 6
        assert expected == 483
        assert s.index((5, 8, 6)) == expected

    def test_out_of_range_entry(self):
        with pytest.raises(InputError):
            space_2x2().index((0, 2))
        with pytest.raises(InputError):
            space_2x2().profile(4)

    @given(st.data())
    def test_round_trip_bijection(self, data):
        sizes = data.draw(
            st.lists(st.integers(1, 4), min_size=1, max_size=4), label="sizes"
        )
        s = TypeSpace(tuple(tuple(f"t{i}" for i in range(k)) for k in sizes))
        k = data.draw(st.integers(0, s.total - 1), label="index")
        assert s.index(s.profile(k)) == k

    def test_profile_cap(self):
        with pytest.raises(ResourceError):
            TypeSpace(tuple(tuple(str(i) for i in range(40)) for _ in range(5)))


class TestProfileSet:
    def test_mixed_alphabet_factors(self):
        s = TypeSpace((("a", "b", "c"), ("x", "y")))
        ps = ProfileSet.from_factors(s, ((0, 2), (1,)))
        assert ps.size == 2
        assert ps.contains((0, 1)) and ps.contains((2, 1))
        assert not ps.contains((1, 1))

    def test_projection(self):
        s = space_2x2()
        ps = profile_set(s, [(0, 0), (1, 1)])
        assert ps.projection(0) == (0, 1)
        assert ps.projection(1) == (0, 1)

    @given(st.data())
    def test_readers_agree_with_the_member_indices(self, data):
        # independent oracle: each member index decoded on its own
        sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4), label="sizes")
        s = TypeSpace(tuple(tuple(f"t{i}" for i in range(k)) for k in sizes))
        ps = ProfileSet(s, data.draw(st.integers(0, (1 << s.total) - 1), label="mask"))
        members = [s.profile(k) for k in range(s.total) if ps.mask >> k & 1]
        assert profiles_of(ps) == members
        for agent in range(s.n):
            assert ps.projection(agent) == tuple(sorted({p[agent] for p in members}))


class TestProductFactorization:
    def test_full_space(self):
        s = space_2x2()
        assert product_factorization(s, ProfileSet.full(s)) == ((0, 1), (0, 1))

    def test_diagonal_not_a_product(self):
        s = space_2x2()
        diag = profile_set(s, [(0, 0), (1, 1)])
        assert product_factorization(s, diag) is None

    def test_row_is_a_product(self):
        s = space_2x2()
        row = profile_set(s, [(0, 0), (0, 1)])
        assert product_factorization(s, row) == ((0,), (0, 1))

    def test_empty_set_rejected(self):
        s = space_2x2()
        with pytest.raises(InputError):
            product_factorization(s, ProfileSet(s, 0))

    @given(st.integers(0, 10_000))
    def test_cardinality_law(self, seed):
        import random

        rng = random.Random(seed)
        s = TypeSpace.shared(rng.randint(1, 3), tuple("abc"[: rng.randint(1, 3)]))
        picks = [k for k in range(s.total) if rng.random() < 0.5]
        if not picks:
            return
        ps = ProfileSet.from_indices(s, picks)
        factors = product_factorization(s, ps)
        sizes = [len(ps.projection(i)) for i in range(s.n)]
        if factors is not None:
            assert ps.size == math.prod(len(f) for f in factors)
        else:
            assert ps.size < math.prod(sizes)


class TestChoiceRuleValidation:
    def test_table_must_be_total(self):
        s = space_2x2()
        with pytest.raises(InputError):
            ChoiceRule(s, ("x",), (0, 0, 0))

    def test_component_row_length(self):
        s = space_2x2()
        with pytest.raises(InputError):
            ChoiceRule(s, ("x",), (0, 0, 0, 0), (("only-one",),))

    @pytest.mark.parametrize("table, bad", [((0, 2, -1, 0), 2), ((0, -1, 2, 0), -1)])
    def test_the_first_outcome_id_out_of_range_is_named(self, table, bad):
        with pytest.raises(InputError, match=f"^outcome id {bad} out of range$"):
            ChoiceRule(space_2x2(), ("x", "y"), table)
