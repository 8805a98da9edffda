"""Digit strings, rep-block notation, and the multiset model."""
from __future__ import annotations

import random
import re
import tracemalloc
from itertools import combinations_with_replacement, permutations
from math import comb, factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from permniven.digits import (
    DigitMultiset,
    _format_runs,
    _parse_runs,
    _runs_mod,
    expand,
    multiset_count,
    value_mod,
)
from permniven.orbits import is_niven


def reference_value_mod(s: str, m: int) -> int:
    """A digit string's value mod m by Horner's rule, one digit at a time."""
    r = 0
    for ch in s:
        r = (r * 10 + (ord(ch) - 48)) % m
    return r


def test_digit_sum_and_value_mod_agree_with_int():
    rng = random.Random(7)
    for _ in range(300):
        s = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 30)))
        if s.strip("0"):
            assert DigitMultiset.from_string(s).digit_sum == sum(int(c) for c in s)
        m = rng.randint(1, 10**6)
        assert value_mod(s, m) == reference_value_mod(s, m) == int(s) % m
    # signs and spaces, which int() accepts, are not digits
    for bad in ("", "12a", "1 2", "-3"):
        with pytest.raises(ValueError):
            DigitMultiset.from_string(bad)
        with pytest.raises(ValueError):
            value_mod(bad, 7)


def test_value_mod_requires_positive_modulus():
    with pytest.raises(ValueError):
        value_mod("12", 0)
    with pytest.raises(ValueError):
        _runs_mod(((1, 1), (2, 1)), 0)


def test_expand_compress_round_trip():
    # digits to runs and back: the parser reads a plain digit string too
    rng = random.Random(11)
    for _ in range(200):
        s = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 40)))
        assert expand(_parse_runs(s)) == s
    # the runs are maximal: adjacent blocks always differ
    for s in ("1000", "999911", "10101", "1_(3)1_(2)0"):
        blocks = _parse_runs(s)
        assert all(a[0] != b[0] for a, b in zip(blocks, blocks[1:]))


def reference_compress(s: str) -> tuple[tuple[int, int], ...]:
    """The maximal runs of a digit string, one character at a time."""
    blocks: list[tuple[int, int]] = []
    for ch in s:
        d = int(ch)
        if blocks and blocks[-1][0] == d:
            blocks[-1] = (d, blocks[-1][1] + 1)
        else:
            blocks.append((d, 1))
    return tuple(blocks)


def reference_format(s: str) -> str:
    parts = []
    for d, n in reference_compress(s):
        parts.append(f"{d}_({n})" if n >= 3 else str(d) * n)
    return "".join(parts)


def test_compress_and_format_match_the_per_character_loop():
    rng = random.Random(19)
    for _ in range(300):
        alphabet = rng.choice(["0123456789", "01", "7", "90"])
        s = "".join(rng.choice(alphabet) * rng.randint(1, 5) for _ in range(rng.randint(1, 30)))
        runs = reference_compress(s)
        assert _parse_runs(s) == runs, s
        assert _format_runs(runs) == reference_format(s), s
        # the rep-block text reads back as the same runs, unexpanded
        assert _parse_runs(reference_format(s)) == runs, s
    run = "7" * 10**6
    assert _parse_runs(run) == reference_compress(run) == ((7, 10**6),)
    assert _format_runs(_parse_runs(run)) == reference_format(run) == "7_(1000000)"
    # blocks of one digit written apart are one run
    assert _parse_runs("1_(3)110_(2)") == ((1, 5), (0, 2))


def test_plain_digits_read_as_the_block_loop_reads_them():
    # plain text takes a one-pass path; a trailing _(1) names the same number
    # and sends it through the block loop
    rng = random.Random(29)
    for _ in range(300):
        alphabet = rng.choice(["0123456789", "01", "7", "90"])
        s = "".join(rng.choice(alphabet) * rng.randint(1, 5) for _ in range(rng.randint(1, 40)))
        padded = rng.choice(["", " ", "\t"]) + s + rng.choice(["", " ", "\n"])
        assert _parse_runs(padded) == _parse_runs(s + "_(1)") == reference_compress(s), s
        if s.strip("0"):
            assert DigitMultiset.from_string(padded).counts == tuple(map(s.count, "0123456789"))
    # text that is not all ASCII digits is refused by the loop, at the same place
    for bad, rest in [("12a3", "a3"), ("12 3", " 3"), ("1.5", ".5"), ("12\n3", "\n3"),
                      ("+12", "+12"), ("12\u0663", "\u0663"), ("1\u00b2", "\u00b2"),
                      ("\uff11\uff12", "\uff11\uff12")]:
        with pytest.raises(ValueError, match=re.escape(f"bad rep-block syntax at {rest!r}")):
            _parse_runs(bad)


def test_runs_mod_equals_horner_on_the_expanded_digits():
    rng = random.Random(23)
    for case in range(300):
        runs = tuple(
            (rng.randrange(10), rng.choice([1, 2, rng.randint(1, 50), rng.randint(1, 2000)]))
            for _ in range(rng.randint(1, 8))
        )
        if case % 3 == 0:
            runs = ((0, rng.randint(1, 20)), *runs)  # a leading zero run
        # a few runs of up to 10^6 digits, which Horner still reads in time
        if case % 60 == 0:
            runs = (*runs, (rng.randrange(10), rng.randint(10**5, 10**6)), (0, 10**6))
        m = rng.choice([1, 2, 7, 9, 81, rng.randint(1, 10**6), rng.randint(1, 10**18)])
        assert _runs_mod(runs, m) == reference_value_mod(expand(runs), m), (runs, m)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    counts=st.lists(st.integers(0, 10**4), min_size=10, max_size=10),
    modulus=st.integers(1, 10**6),
)
def test_canonical_mod_by_runs_equals_horner(counts, modulus):
    assume(any(counts[1:]))
    m = DigitMultiset(tuple(counts))
    assert _runs_mod(m.runs, modulus) == reference_value_mod(m.canonical, modulus)


def test_expand_validates_blocks():
    with pytest.raises(ValueError):
        expand(())
    with pytest.raises(ValueError):
        expand(((10, 2),))
    with pytest.raises(ValueError):
        expand(((3, 0),))


def test_parse_number_plain_and_rep_block():
    assert expand(_parse_runs("2448")) == "2448"
    assert expand(_parse_runs("1_(26)01")) == "1" * 26 + "01"
    assert expand(_parse_runs("10_(3)")) == "1000"
    assert expand(_parse_runs(" 90_(2) ")) == "900"


# every reader of number text refuses with the parser's own message
TEXT_READERS = [
    DigitMultiset.from_string,
    lambda text: value_mod(text, 7),
    is_niven,
]


@pytest.mark.parametrize(
    "bad", ["", "1_(x)", "_(3)", "1_()", "1_(0)", "abc", "1_(9223372036854775808)"]
)
def test_parse_number_rejects_garbage(bad):
    with pytest.raises(ValueError) as refused:
        _parse_runs(bad)
    for read in TEXT_READERS:
        with pytest.raises(ValueError, match=re.escape(str(refused.value))):
            read(bad)


def test_parse_number_rejects_other_scripts_digits():
    # \d matches Arabic-Indic digits unless the pattern is ASCII-only
    for text in ("\u0661\u0662", "1_(\u0661\u0662)", "24\u06648"):
        for read in (_parse_runs, *TEXT_READERS):
            with pytest.raises(ValueError):
                read(text)


def test_format_number_round_trips_through_parse():
    rng = random.Random(13)
    for _ in range(200):
        s = "".join(rng.choice("012") for _ in range(rng.randint(1, 25)))
        assert expand(_parse_runs(_format_runs(reference_compress(s)))) == s
    assert _format_runs(_parse_runs("1000")) == "10_(3)"
    assert _format_runs(_parse_runs("1100")) == "1100"  # runs below three stay literal


def test_multiset_from_string():
    m1 = DigitMultiset.from_string("2448")
    assert m1 == DigitMultiset((0, 0, 1, 0, 2, 0, 0, 0, 1, 0))
    assert m1.k == 4
    assert m1.digit_sum == 18
    assert m1.runs == ((8, 1), (4, 2), (2, 1))
    assert m1.canonical == "8442"
    assert m1.present_digits == (2, 4, 8)
    # rep-block text and surrounding spaces, as on the command line
    assert DigitMultiset.from_string(" 1_(26)01 ").counts == (1, 27, 0, 0, 0, 0, 0, 0, 0, 0)
    # str.isdigit admits other scripts' digits; the digit model does not
    with pytest.raises(ValueError):
        DigitMultiset.from_string("24\u06648")


def random_rep_block_text(rng: random.Random) -> str:
    blocks = [(rng.choice("0123456789" if rng.random() < 0.5 else "019"),
               rng.choice([1, 2, 3, rng.randint(1, 80)]))
              for _ in range(rng.randint(1, 8))]
    return "".join(d * n if rng.random() < 0.5 else f"{d}_({n})" for d, n in blocks)


def test_text_readers_agree_with_the_expanded_digits():
    rng = random.Random(31)
    for _ in range(400):
        text = random_rep_block_text(rng)
        digits = expand(_parse_runs(text))
        m = rng.choice([1, 2, 7, 9, rng.randint(1, 10**6), rng.randint(1, 10**18)])
        assert value_mod(text, m) == reference_value_mod(digits, m), (text, m)
        s = sum(map(int, digits))
        if s:
            assert DigitMultiset.from_string(text) == DigitMultiset.from_string(digits), text
            assert is_niven(text) == (reference_value_mod(digits, s) == 0), text


def test_text_readers_never_expand_their_input():
    # ten billion ones would take about 10 GB written out
    tracemalloc.start()
    try:
        assert DigitMultiset.from_string("1_(10000000000)2").k == 10000000001
        assert DigitMultiset.from_string("1_(10000000000)").k == 10000000000
        assert value_mod("1_(10000000000)", 7) == 5  # R_n mod 7 has period 6
        assert not is_niven("1_(10000000000)")
        assert not is_niven("1_(10000000000)2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6, peak


def test_multiset_rejects_bad_counts():
    with pytest.raises(ValueError):
        DigitMultiset((0,) * 10)  # empty
    with pytest.raises(ValueError):
        DigitMultiset((1,) * 9)  # wrong arity
    with pytest.raises(ValueError):
        DigitMultiset((-1, 2, 0, 0, 0, 0, 0, 0, 0, 0))
    # a float count fails here, not later inside the criterion's pow
    with pytest.raises(ValueError, match="counts must be 10 non-negative integers"):
        DigitMultiset((0, 1.0, 0, 0, 0, 0, 0, 0, 0, 0))


def test_multiset_stores_its_counts_as_a_tuple():
    m = DigitMultiset([0, 0, 1, 0, 2, 0, 0, 0, 1, 0])
    assert m.counts == (0, 0, 1, 0, 2, 0, 0, 0, 1, 0) and type(m.counts) is tuple
    assert hash(m) == hash(DigitMultiset(m.counts)) and m == DigitMultiset.from_string("2448")


def test_orbit_size_is_the_multinomial():
    rng = random.Random(17)
    for _ in range(100):
        digits = [rng.randrange(10) for _ in range(rng.randint(1, 7))]
        if not any(digits):
            digits[0] = 1
        m = DigitMultiset.from_string("".join(map(str, digits)))
        expected = factorial(m.k)
        for c in m.counts:
            expected //= factorial(c)
        assert m.orbit_size == expected
        # cross-check against distinct arrangements for small k
        if m.k <= 6:
            assert m.orbit_size == len(set(permutations(digits)))
            assert m.value_count == len({p for p in permutations(digits) if p[0]})


def test_repdigit_predicate():
    assert DigitMultiset.from_string("777").is_repdigit
    assert DigitMultiset.from_string("7").is_repdigit
    assert not DigitMultiset.from_string("770").is_repdigit
    assert not DigitMultiset.from_string("12").is_repdigit


def test_with_zeros_and_nonzero_part_invert():
    m = DigitMultiset.from_string("2448")
    padded = m.with_zeros(3)
    assert padded.k == 7
    assert padded.digit_sum == m.digit_sum
    assert padded.counts[1:] == m.counts[1:]
    assert m.with_zeros(0) == m


def test_multiset_count_matches_enumeration():
    for k in range(1, 6):
        with_zero = sum(
            1
            for combo in combinations_with_replacement(range(10), k)
            if any(combo)
        )
        zero_free = sum(
            1 for _ in combinations_with_replacement(range(1, 10), k)
        )
        assert multiset_count(k) == with_zero == comb(k + 9, 9) - 1
        assert multiset_count(k, allow_zero=False) == zero_free == comb(k + 8, 8)
