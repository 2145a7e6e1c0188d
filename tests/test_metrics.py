import random
import string

import pytest

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


def ref_levenshtein(x, y):
    """Full-matrix DP, kept deliberately naive."""
    n, m = len(x), len(y)
    D = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        D[i][0] = i
    for j in range(m + 1):
        D[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            D[i][j] = min(
                D[i - 1][j] + 1,
                D[i][j - 1] + 1,
                D[i - 1][j - 1] + (x[i - 1] != y[j - 1]),
            )
    return D[n][m]


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
        # a zero or missing cap used to fail inside compare, a fractional prefix_cap too
        for kwargs in ({"cap": 0}, {"cap": None}, {"cap": float("inf")},
                       {"prefix_scale": float("nan")}, {"prefix_cap": 1.5},
                       {"prefix_cap": -1}):
            with pytest.raises(ComparatorError, match="prefix_cap"):
                Comparator("jaro_winkler", **kwargs)

    def test_make_comparator(self):
        assert make_comparator("jaro").kind == "jaro"
        c = make_comparator({"kind": "absolute_difference_normalized", "cap": 5})
        assert c.cap == 5
