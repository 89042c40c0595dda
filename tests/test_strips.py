"""Dyadic strip decomposition of the upper band [1/2, 1)."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from planardyn.numerics import DomainError
from planardyn.strips import (
    SHIFT_PROFILE,
    Zone,
    block_index,
    block_of,
    shear_bound,
    shift_profile_pow,
    split_height,
    strip_bounds,
    strip_locate,
    strip_table,
)

band_fractions = st.fractions(
    min_value=Fraction(1, 2), max_value=Fraction(8191, 8192), max_denominator=2**14
)


def test_split_height_values():
    assert [split_height(n) for n in (1, 2, 3, 4)] == [
        Fraction(1, 4),
        Fraction(1, 8),
        Fraction(1, 16),
        Fraction(1, 32),
    ]
    with pytest.raises(DomainError):
        split_height(0)


def test_shear_bound_values():
    assert [shear_bound(n) for n in (1, 2, 5)] == [
        Fraction(1, 2),
        Fraction(3, 4),
        Fraction(31, 32),
    ]


def test_block_index_is_quadratic():
    assert [block_index(m) for m in (1, 2, 3, 12)] == [2, 6, 12, 156]


def test_block_of_values():
    assert [block_of(i) for i in (2, 5, 6, 11, 12, 19, 20)] == [1, 1, 2, 2, 3, 3, 4]


def test_block_of_inverts_block_index():
    for m in range(1, 40):
        assert block_of(block_index(m)) == m
        assert block_of(block_index(m + 1) - 1) == m


def test_block_of_is_the_largest_block_below_the_level():
    # against the brute-force largest n with n(n+1) <= i
    n = 1
    for i in range(2, 20001):
        while (n + 1) * (n + 2) <= i:
            n += 1
        assert block_of(i) == n, i
    # at the walls of blocks far past the integers doubles hold exactly
    for k in range(1, 31):
        n = 10**k
        assert block_of(n * (n + 1)) == n, k
        assert block_of(n * (n + 1) - 1) == n - 1, k


def test_strip_bounds_values():
    assert strip_bounds(2) == (Fraction(3, 4), Fraction(13, 16), Fraction(7, 8))
    assert strip_bounds(3) == (Fraction(7, 8), Fraction(29, 32), Fraction(15, 16))
    assert strip_bounds(4) == (Fraction(15, 16), Fraction(61, 64), Fraction(31, 32))


def test_strip_locate_frozen():
    d = strip_locate(Fraction(13, 16))
    assert (d.level, d.zone, d.n) == (2, Zone.B_ZONE, 1)
    assert (d.lo, d.mid, d.hi) == (Fraction(3, 4), Fraction(13, 16), Fraction(7, 8))

    core = strip_locate(Fraction(5, 8))
    assert (core.level, core.zone, core.n, core.mid) == (1, Zone.D1_CORE, None, None)

    d3 = strip_locate(Fraction(7, 8))
    assert (d3.level, d3.zone) == (3, Zone.F_ZONE)


def test_strip_locate_top_line():
    assert strip_locate(Fraction(1)).zone is Zone.TOP_LINE


def test_strip_locate_rejects_lower_half():
    with pytest.raises(DomainError):
        strip_locate(Fraction(1, 4))


def test_shift_profile_pow_matches_iteration():
    s = Fraction(1, 4)
    for i in range(6):
        assert shift_profile_pow(Fraction(1, 4), i) == s
        s = SHIFT_PROFILE(s)
    assert shift_profile_pow(Fraction(1, 4), 3) == Fraction(29, 32)
    assert shift_profile_pow(0, 0) == 0 and shift_profile_pow(1, 7) == 1


def test_shift_profile_pow_domain():
    # the closed form holds for forward iterates of heights in [0, 1] only
    for s, i in ((Fraction(1, 4), -1), (Fraction(1), -3), (Fraction(-1, 4), 0),
                 (Fraction(-1), 2), (Fraction(5, 4), 1)):
        with pytest.raises(DomainError):
            shift_profile_pow(s, i)


def test_strip_table_rows():
    rows = strip_table(3)
    assert [row["level"] for row in rows] == [1, 2, 3]
    assert rows[0]["mid"] is None and rows[0]["n"] is None
    assert rows[1] == {
        "level": 2,
        "zone": "F_ZONE|B_ZONE",
        "n": 1,
        "lo": "3/4",
        "mid": "13/16",
        "hi": "7/8",
    }


@given(band_fractions)
@example(Fraction(3, 4))
def test_strip_locate_consistent(s):
    d = strip_locate(s)
    # the core band [1/2, 3/4] is closed; each level above it is half-open
    assert d.lo <= s < d.hi or (d.level == 1 and s == d.hi)
    assert d.lo == 1 - Fraction(1, 2**d.level)
    assert d.hi == 1 - Fraction(1, 2 ** (d.level + 1))
    if d.level >= 2:
        assert d.n == block_of(d.level)
        assert d.lo < d.mid < d.hi
        assert d.zone is (Zone.F_ZONE if s < d.mid else Zone.B_ZONE)
        # the split height of the strip's block sets the zone boundary
        assert d.mid == 1 - (1 - split_height(d.n)) * Fraction(1, 2**d.level)


@given(st.integers(min_value=2, max_value=60))
def test_adjacent_strips_share_a_wall(i):
    assert strip_bounds(i)[2] == strip_bounds(i + 1)[0]
