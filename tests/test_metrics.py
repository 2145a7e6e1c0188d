import random
import string
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from electre_linkage import metrics
from electre_linkage.core import CHUNK_ROWS
from electre_linkage.metrics import (
    Comparator,
    ComparatorError,
    absolute_difference_normalized,
    exact,
    jaro,
    jaro_winkler,
    levenshtein,
    levenshtein_normalized,
    make_comparator,
)

from oracles import (
    ref_absolute_difference_normalized,
    ref_jaro,
    ref_jaro_winkler,
    ref_levenshtein,
)


def random_string(rng, maxlen=12, alphabet=string.ascii_uppercase + " -'"):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, maxlen)))


class TestLevenshtein:
    def test_kitten_sitting(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_identity(self):
        assert levenshtein("abc", "abc") == 0

    def test_pure_insertions(self):
        assert levenshtein("", "abc") == 3

    def test_matches_naive_dp(self):
        rng = random.Random(1)
        for _ in range(300):
            x, y = random_string(rng), random_string(rng)
            assert levenshtein(x, y) == ref_levenshtein(x, y)

    def test_triangle_inequality(self):
        rng = random.Random(2)
        for _ in range(500):
            x, y, z = (random_string(rng) for _ in range(3))
            assert levenshtein(x, z) <= levenshtein(x, y) + levenshtein(y, z)

    def test_normalized(self):
        assert levenshtein_normalized("abc", "abc") == 1.0
        assert levenshtein_normalized("", "") == 1.0
        assert levenshtein_normalized("abc", "") == 0.0


class TestJaroWinkler:
    def test_martha_marhta(self):
        assert jaro_winkler("MARTHA", "MARHTA") == pytest.approx(0.9611, abs=1e-4)

    def test_jaro_known_value(self):
        # one transposition, all characters matched
        assert jaro("MARTHA", "MARHTA") == pytest.approx(17 / 18)

    def test_no_match(self):
        assert jaro("ABC", "XYZ") == 0.0
        assert jaro_winkler("ABC", "XYZ") == 0.0

    def test_empty(self):
        assert jaro("", "") == 1.0
        assert jaro("A", "") == 0.0

    def test_winkler_bonus_nonnegative(self):
        rng = random.Random(3)
        for _ in range(1000):
            x, y = random_string(rng), random_string(rng)
            assert jaro_winkler(x, y) >= jaro(x, y) - 1e-15


class TestComparators:
    @pytest.mark.parametrize(
        "kind", ["levenshtein_normalized", "jaro", "jaro_winkler", "exact"]
    )
    def test_symmetry_and_identity(self, kind):
        comp = Comparator(kind)
        rng = random.Random(4)
        for _ in range(300):
            x, y = random_string(rng), random_string(rng)
            assert comp.compare(x, y) == pytest.approx(comp.compare(y, x), abs=1e-12)
            assert comp.compare(x, x) == 1.0
            assert 0.0 <= comp.compare(x, y) <= 1.0

    def test_unicode_and_long_strings(self):
        comp = Comparator("levenshtein_normalized")
        assert 0.0 <= comp.compare("née", "nee") <= 1.0
        assert 0.0 <= comp.compare("a" * 500, "b" * 400) <= 1.0
        assert Comparator("jaro_winkler").compare("ü" * 50, "u" * 50) >= 0.0

    def test_exact(self):
        assert exact("16", "17") == 0.0
        assert exact("16", "16") == 1.0

    def test_absolute_difference(self):
        assert absolute_difference_normalized(16, 17, cap=10) == pytest.approx(0.9)
        assert absolute_difference_normalized(0, 100, cap=10) == 0.0
        assert absolute_difference_normalized("5", "5", cap=10) == 1.0

    def test_numeric_comparator_rejects_text(self):
        with pytest.raises(ComparatorError):
            absolute_difference_normalized("abc", "5")

    def test_numeric_comparator_rejects_non_finite(self):
        # these parse as floats and used to come out as similarity 0.0
        for x, y in (("nan", "5"), ("5", "inf"), ("-inf", "-inf"), ("NaN", "NaN")):
            with pytest.raises(ComparatorError, match="non-finite"):
                absolute_difference_normalized(x, y)
            with pytest.raises(ComparatorError):
                Comparator("absolute_difference_normalized").compare(x, y)

    def test_unknown_kind(self):
        with pytest.raises(ComparatorError):
            Comparator("soundex")

    def test_bad_parameters_rejected(self):
        # a zero or missing cap used to fail inside compare, a fractional prefix_cap too;
        # a negative or too large prefix_scale took Jaro-Winkler outside [0, 1]
        for kwargs in ({"cap": 0}, {"cap": None}, {"cap": float("inf")},
                       {"prefix_scale": float("nan")}, {"prefix_cap": 1.5},
                       {"prefix_cap": -1}, {"prefix_scale": -0.1}, {"prefix_scale": 0.5},
                       {"prefix_scale": 0.2, "prefix_cap": 6}, {"prefix_scale": 1.01,
                                                               "prefix_cap": 1},
                       # booleans used to pass as 1 and 1.0, ints beyond a float overflowed
                       {"prefix_cap": True}, {"cap": True}, {"prefix_scale": False},
                       {"cap": 10**400}, {"prefix_scale": 10**400}, {"prefix_cap": 10**400}):
            with pytest.raises(ComparatorError, match="prefix_cap"):
                Comparator("jaro_winkler", **kwargs)
        # the largest bonus allowed reaches 1 and no further
        assert Comparator("jaro_winkler", prefix_scale=0.25).compare("MARTHA", "MARHTA") <= 1.0

    @pytest.mark.parametrize("cap", [5e-324, 1.7976931348623157e308])
    @pytest.mark.parametrize("kind", metrics.COMPARATOR_KINDS)
    def test_tables_are_finite_within_the_unit_interval(self, kind, cap):
        """Every kind's table lies in [0, 1] at the extremes of its parameters and values,
        so build_pairs never makes a pair that a PairBlock refuses as non-finite."""
        values = ["1.7976931348623157e308", "-1.7976931348623157e308", "5e-324", "-5e-324",
                  "0", "-0.0"]
        if kind != "absolute_difference_normalized":
            values += ["", "\0", "A" * 200, "A" * 199 + "B", "\U0001f600" * 3,
                       "A\U0001f600\0", "MARTHA", "MARHTA"]
        # a Jaro-Winkler bonus whose prefix_scale * prefix_cap reaches 1
        prefixes = [(0.1, 4), (1.0, 1), (0.25, 4), (0.125, 8)]
        for prefix_scale, prefix_cap in prefixes if kind == "jaro_winkler" else prefixes[:1]:
            table = Comparator(kind, prefix_scale, prefix_cap, cap).compare(values, values)
            assert table.dtype == np.float64 and table.shape == (len(values), len(values))
            assert ((table >= 0) & (table <= 1)).all(), table  # nan compares false
            assert np.diagonal(table).tolist() == [1.0] * len(values)

    def test_make_comparator(self):
        assert make_comparator("jaro").kind == "jaro"
        c = make_comparator({"kind": "absolute_difference_normalized", "cap": 5})
        assert c.cap == 5


SETTINGS = settings(max_examples=300, deadline=None)

finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 1e308, -1e308, 5e-324, 10.0, 9.999999999999998, 10.000000000000002, -10.0]
)


@st.composite
def numeric_text(draw):
    """A finite number as ingest may read it: signed zeros, exponents,
    digit-group underscores and surrounding white space."""
    form = draw(st.integers(0, 3))
    if form == 0:
        n = draw(st.integers(-25, 25) | st.integers(-10**20, 10**20))
        text = f"{n:_}" if draw(st.booleans()) else str(n)
    else:
        x = draw(finite_floats)
        text = (repr(x), f"{x:e}", repr(x).upper())[form - 1]
    return draw(st.sampled_from(["", " ", "\t"])) + text + draw(st.sampled_from(["", " ", "\n"]))


caps = (st.sampled_from([10, 10.0, 0.5, 3, 1e-300])
        | st.floats(min_value=5e-324, max_value=1e308) | st.integers(1, 10**6))
not_finite = st.sampled_from(["nan", "-NaN", "inf", "-Infinity", "1e400", "-1e999"])
not_numeric = st.sampled_from(["abc", "", " ", "1__0", "0x10", "1,5", "--1"])


@SETTINGS
@given(st.lists(numeric_text(), max_size=6), st.lists(numeric_text(), max_size=6), caps)
def test_numeric_grid_matches_scalar_reference(vals_a, vals_b, cap):
    table = Comparator("absolute_difference_normalized", cap=cap).compare(vals_a, vals_b)
    expected = np.array(
        [[ref_absolute_difference_normalized(x, y, cap) for y in vals_b] for x in vals_a],
        dtype=np.float64,
    ).reshape(len(vals_a), len(vals_b))
    assert table.dtype == np.float64 and table.shape == expected.shape
    assert table.tobytes() == expected.tobytes()
    for x, y in zip(vals_a, vals_b):
        assert (absolute_difference_normalized(x, y, cap).hex()
                == ref_absolute_difference_normalized(x, y, cap).hex())


@SETTINGS
@given(st.lists(numeric_text(), max_size=4), st.lists(numeric_text(), min_size=1, max_size=4),
       not_finite | not_numeric, st.booleans(), st.data())
def test_numeric_grid_rejects_what_the_reference_rejects(side, other, bad, on_a, data):
    # a bad value on either side, among good ones, fails the whole table
    side.insert(data.draw(st.integers(0, len(side))), bad)
    vals_a, vals_b = (side, other) if on_a else (other, side)
    pair = (bad, other[0]) if on_a else (other[0], bad)
    comparator = Comparator("absolute_difference_normalized")
    with pytest.raises(ComparatorError):
        comparator.compare(vals_a, vals_b)
    with pytest.raises(ComparatorError):
        ref_absolute_difference_normalized(*pair)
    with pytest.raises(ComparatorError):
        comparator.compare(*pair)


strings = (
    st.text(max_size=3)  # the match window is -1 or 0 below 4 characters
    | st.text(alphabet="AB", max_size=10)
    | st.text(alphabet="ABCÉü -", max_size=14)
    | st.text(max_size=20)
)


@SETTINGS
@given(strings, strings, st.integers(0, 6), st.floats(0, 1))
def test_jaro_matches_flag_loop(x, y, prefix_cap, scale):
    prefix_scale = scale / max(prefix_cap, 1)
    assert jaro(x, y).hex() == ref_jaro(x, y).hex()
    assert (jaro_winkler(x, y, prefix_scale, prefix_cap).hex()
            == ref_jaro_winkler(x, y, prefix_scale, prefix_cap).hex())


@st.composite
def jaro_value_lists(draw):
    """Two lists of values for one table: repeats within a list and values
    shared by both lists, empty strings, strings of 1-3 characters (match
    window -1 or 0), embedded and trailing NULs, astral code points, a lone
    surrogate, strings of 63-65, 127-129 and 191-193 code points (the last
    ones one, two and three 64-bit words hold, and one more), and long
    strings over a small and over a large alphabet, so that a table mixes
    values of one word and of several."""
    text = (
        st.text(max_size=3)
        | st.text(alphabet="AB\0", max_size=10)
        | st.text(alphabet=st.sampled_from("AÉ\U0001F600\ud800 -"), max_size=14)
        | st.text(alphabet=st.sampled_from("AB\U0001F600"), min_size=63, max_size=65)
        | st.text(alphabet="ABC", min_size=65, max_size=90)
        | st.text(alphabet="AB-", min_size=127, max_size=129)
        | st.text(alphabet=st.sampled_from("AB\U0001F600"), min_size=191, max_size=193)
        | st.text(alphabet=st.characters(max_codepoint=0x2FFF), min_size=60, max_size=200)
    )
    vals_a = draw(st.lists(text, max_size=6))
    vals_b = draw(st.lists(text | st.sampled_from(vals_a or [""]), max_size=6))
    return vals_a, vals_b + draw(st.lists(st.sampled_from(vals_b or [""]), max_size=2))


def assert_jaro_tables_match(vals_a, vals_b, prefix_scale=0.1, prefix_cap=4):
    for comparator, ref in (
        (Comparator("jaro"), ref_jaro),
        (Comparator("jaro_winkler", prefix_scale=prefix_scale, prefix_cap=prefix_cap),
         lambda x, y: ref_jaro_winkler(x, y, prefix_scale, prefix_cap)),
    ):
        table = comparator.compare(vals_a, vals_b)
        expected = np.array([[ref(x, y) for y in vals_b] for x in vals_a],
                            dtype=np.float64).reshape(len(vals_a), len(vals_b))
        assert table.dtype == np.float64 and table.shape == expected.shape
        assert table.tobytes() == expected.tobytes()


@SETTINGS
@given(jaro_value_lists(), st.integers(0, 6), st.floats(0, 1))
def test_jaro_tables_match_the_references(lists, prefix_cap, scale):
    assert_jaro_tables_match(*lists, scale / max(prefix_cap, 1), prefix_cap)


def test_jaro_table_spans_chunks():
    rng = random.Random(7)
    vals_a = [random_string(rng, 20, "ABCDE") for _ in range(150)]
    vals_b = [random_string(rng, 20, "ABCDE") for _ in range(120)]
    assert len(vals_a) * len(vals_b) > CHUNK_ROWS  # several chunks of A values
    assert_jaro_tables_match(vals_a, vals_b)
    # more B values than one chunk holds
    assert_jaro_tables_match(vals_a[:2], [random_string(rng, 8, "ABC")
                                          for _ in range(CHUNK_ROWS + 7)])


def test_jaro_table_mixes_value_words(monkeypatch):
    # chunks of 4 value pairs whose values take 1, 2 or 3 words of bit masks
    # on either side of the table, and equal pairs of 64 and of 150 code points
    monkeypatch.setattr(metrics, "CHUNK_ROWS", 4)
    rng = random.Random(9)
    vals_a = ["".join(rng.choice("ABAB-") for _ in range(n))
              for n in (63, 64, 65, 3, 128, 0, 129, 150, 192, 193)]
    vals_b = ["".join(rng.choice("ABBA ") for _ in range(n))
              for n in (64, 193, 5, 127, 64, 66, 1, 150, 191, 130)]
    vals_b[4], vals_b[7] = vals_a[1], vals_a[7]
    assert_jaro_tables_match(vals_a, vals_b)
    assert_jaro_tables_match(vals_a[:4], vals_b[5:])
    assert_jaro_tables_match(vals_a[6:], vals_b[:3])


def test_jaro_table_memory_follows_the_table():
    # the temporaries are bounded by CHUNK_ROWS value pairs times the longest
    # value, so four more chunks of pairs add about their table cells, not
    # value pairs x value length
    rng = random.Random(8)
    vals_b = ["".join(rng.choice("ABCDEFGH") for _ in range(24)) for _ in range(256)]

    def peak(n_a):
        vals_a = ["".join(rng.choice("ABCDEFGH") for _ in range(24)) for _ in range(n_a)]
        tracemalloc.start()
        try:
            table = Comparator("jaro_winkler").compare(vals_a, vals_b)
            return tracemalloc.get_traced_memory()[1], table.nbytes
        finally:
            tracemalloc.stop()

    small, small_bytes = peak(128)
    large, large_bytes = peak(384)
    assert large_bytes - small_bytes == 4 * CHUNK_ROWS * 8
    assert large - small < 1.5 * (large_bytes - small_bytes)


def test_jaro_table_memory_on_long_values():
    # values of 200 code points take four words of bit masks; the chunks
    # shrink with the square of the words, so the masks of a chunk's
    # characters stay within about CHUNK_ROWS * 512 bytes
    rng = random.Random(11)
    cjk = [chr(0x4E00 + k) for k in range(20000)]
    vals_a = ["".join(rng.choice(cjk) for _ in range(200)) for _ in range(60)]
    vals_b = ["".join(rng.choice(cjk) for _ in range(200)) for _ in range(300)]
    tracemalloc.start()
    try:
        Comparator("jaro_winkler").compare(vals_a, vals_b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000
