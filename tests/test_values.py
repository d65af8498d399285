import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphopt import (
    Graph,
    ValueFormatError,
    ValueTable,
    common_denominator,
    exact_ratio,
    load_values,
    parse_values,
    save_graph,
    save_values,
    values,
)


def test_table_basics():
    t = ValueTable(np.array([0.3, 0.1, 0.7, 0.1]))
    assert t.n == 4
    assert t.value(2) == 0.7
    assert t.argmin() == 1  # first of the tied minima
    assert t.argmax() == 2
    assert t.best(maximize=True) == 2
    assert t.best(maximize=False) == 1


def test_gap_to_best():
    t = ValueTable(np.array([0.0, 0.25, 1.0]))
    assert t.gap_to_best(1, maximize=False) == pytest.approx(0.25)
    assert t.gap_to_best(1, maximize=True) == pytest.approx(0.75)
    assert t.gap_to_best(0, maximize=False) == 0.0


# ties, signed zeros and extremes among any finite floats
TABLE_VALUES = st.lists(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]) | st.floats(allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(values=TABLE_VALUES)
@example(values=[0.0, -0.0])
@example(values=[-0.0, 0.0, -0.0])
def test_cached_table_facts_match_numpy_bit_for_bit(values):
    t = ValueTable(np.array(values))
    means = np.array(values)
    # hex compares bit for bit, so the sign of a zero counts
    assert [x.hex() for x in t._bounds] == [float(means.min()).hex(), float(means.max()).hex()]
    assert (t.argmin(), t.argmax()) == (int(np.argmin(means)), int(np.argmax(means)))
    # ties go to the lowest id
    assert (t.argmin(), t.argmax()) == (values.index(min(values)), values.index(max(values)))
    for maximize in (False, True):
        best = float(means[np.argmax(means) if maximize else np.argmin(means)])
        for x in range(len(values)):
            want = best - float(means[x]) if maximize else float(means[x]) - best
            assert t.gap_to_best(x, maximize).hex() == want.hex()


def test_means_are_read_only():
    t = ValueTable(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        t.means[0] = 5.0


def test_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    t = ValueTable(rng.normal(size=50))
    p = tmp_path / "v.txt"
    save_values(t, p)
    back = load_values(p)
    # %.17g preserves float64 exactly
    assert np.array_equal(back.means, t.means)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_value_file_round_trip(values, tmp_path_factory):
    out = tmp_path_factory.mktemp("values")
    save_values(ValueTable(np.array(values)), out / "v.txt")
    back = load_values(out / "v.txt")
    assert back.means.tolist() == values
    save_values(back, out / "again.txt")
    assert (out / "again.txt").read_bytes() == (out / "v.txt").read_bytes()


def test_load_rejects_gaps_and_duplicates(tmp_path):
    p = tmp_path / "v.txt"
    p.write_text("0,1.0\n2,2.0\n")
    with pytest.raises(ValueFormatError):
        load_values(p)
    p.write_text("0,1.0\n0,2.0\n")
    with pytest.raises(ValueFormatError):
        load_values(p)


def test_load_reports_line_numbers(tmp_path):
    p = tmp_path / "v.txt"
    p.write_text("0,1.0\n1,not-a-number\n")
    with pytest.raises(ValueFormatError) as err:
        load_values(p)
    assert ":2:" in str(err.value)


def test_parse_values_skips_a_blank_line(tmp_path):
    p = tmp_path / "v.txt"
    p.write_text("0,1.0\n\n  \n1,2.0\n")
    assert parse_values(p, 2) == [1.0, 2.0]


@pytest.mark.parametrize(
    "text, n, message",
    [
        ("0,1.0\n1\n", None, r":2: expected 'node,value', got '1'$"),
        ("0,1.0\n1,2.0,3.0\n", None, r":2: expected 'node,value', got '1,2.0,3.0'$"),
        ("", None, r"v\.txt: empty value file$"),
        ("\n", 2, r"v\.txt: empty value file$"),
        ("0,1.0\n1,2.0\n", 3, r"v\.txt: expected 3 values, found 2$"),
    ],
    ids=["one-field", "three-fields", "empty", "only-blank-lines", "count-not-n"],
)
def test_parse_values_refuses_a_malformed_file(text, n, message, tmp_path):
    p = tmp_path / "v.txt"
    p.write_text(text)
    with pytest.raises(ValueFormatError, match=message):
        parse_values(p, n)


def test_load_rejects_non_finite_values(tmp_path):
    p = tmp_path / "v.txt"
    for bad in ("nan", "inf", "-inf"):
        p.write_text(f"0,1.0\n1,{bad}\n")
        with pytest.raises(ValueFormatError, match=":2: non-finite"):
            load_values(p)


@pytest.mark.parametrize(
    "write",
    [
        lambda d: save_values([1.0, math.nan], d / "v.txt"),
        lambda d: save_values([0.5, -math.inf], d / "v.txt"),
        lambda d: save_values([], d / "v.txt"),
        lambda d: save_graph(Graph.from_edges(3, [(0, 1)]), d / "g.txt", values=ValueTable(np.ones(2))),
    ],
    ids=["nan", "infinite", "empty", "table-length-not-n"],
)
def test_writers_refuse_what_their_readers_refuse(write, tmp_path):
    # each used to write a file that loading then refused
    with pytest.raises(ValueError):
        write(tmp_path)
    assert not list(tmp_path.iterdir())


def test_parse_values_reads_exact_numbers(tmp_path):
    p = tmp_path / "v.txt"
    p.write_text("0,0.1\n1,1/3\n2,1e400\n")
    assert parse_values(p, 3, number=Fraction) == [Fraction(1, 10), Fraction(1, 3), 10**400]
    with pytest.raises(ValueFormatError, match=":2:"):
        parse_values(p, 3)  # "1/3" is no float literal
    p.write_text("0,0.1\n1,1/0\n")
    with pytest.raises(ValueFormatError, match=":2:"):
        parse_values(p, number=Fraction)


def _outcome(read, token):
    try:
        return read(token)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def _float_reading(f: Fraction) -> float:
    """|f| rounded to a float as float() rounds it, inf past the largest
    (int true division rounds correctly)."""
    try:
        return abs(f.numerator) / f.denominator
    except OverflowError:
        return math.inf


_digits = st.text("0123456789", max_size=20)
_decimal_tokens = st.builds(
    lambda sign, whole, frac, exp: sign + whole + frac + exp,
    st.sampled_from(["", "-", "+"]),
    _digits,
    st.one_of(st.just(""), _digits.map(lambda d: "." + d)),
    st.one_of(
        st.just(""),
        st.builds(
            lambda e, sign, d: e + sign + d,
            st.sampled_from("eE"),
            st.sampled_from(["", "-", "+"]),
            st.text("0123456789", min_size=1, max_size=3),
        ),
    ),
)
_ratio_tokens = st.builds(
    lambda a, b: f"{a}/{b}", st.integers(-(10**6), 10**6), st.integers(0, 10**6)
)


@settings(max_examples=500, deadline=None)
@given(token=st.one_of(_decimal_tokens, _ratio_tokens, st.text(max_size=12)))
@example(token="1_0")
@example(token="\u0661\u0662.5")  # Arabic-Indic digits
@example(token=" 1.5")
@example(token="1.d")
@example(token="1" * 3000 + "." + "1" * 3000)
@example(token="1" * 5000)  # over int()'s digit limit
@example(token="2.4703282292062327e-324")  # just below half the least float
@example(token="1.797693134862315807e308")  # float() rounds it down to the largest
@example(token="-1/" + "9" * 330)
def test_exact_ratio_matches_fraction(token):
    want = _outcome(Fraction, token)
    got = _outcome(exact_ratio, token)
    if isinstance(want, Fraction) and want and _float_reading(want) in (0.0, math.inf):
        assert got[0] is ValueError and " float" in got[1]
    elif isinstance(want, Fraction):
        num, den = got
        assert type(num) is int and type(den) is int and den > 0
        assert Fraction(num, den) == want
    else:
        assert got == want


def test_exact_ratio_reads_decimals_over_powers_of_ten():
    assert exact_ratio("2.5e-3") == (25, 10**4)
    assert exact_ratio("1e+20") == (10**20, 1)
    assert exact_ratio("-1.5e3") == (-1500, 1)
    assert exact_ratio(".5") == (5, 10)
    assert exact_ratio("5.") == (5, 1)
    assert exact_ratio("-0") == (0, 1)
    assert exact_ratio("0.000e-99999") == (0, 1)
    assert exact_ratio("1/3") == (1, 3)


def test_exact_ratio_drops_trailing_zeros():
    assert exact_ratio("1.50") == (15, 10)
    assert exact_ratio("-1.500e1") == (-15, 1)
    assert exact_ratio("150e-2") == (15, 10)
    assert exact_ratio("100.00") == (100, 1)
    assert exact_ratio("1." + "0" * 4000) == (1, 1)


def test_common_denominator_follows_values_not_spelling():
    plain = ["1.5", "-0.25", "3", "1/3"]
    padded = ["1.50", "-0.2500", "3." + "0" * 4000, "1/3"]
    ints, L = common_denominator([exact_ratio(t) for t in plain])
    assert (ints, L) == ([450, -75, 900, 100], 300)
    assert common_denominator([exact_ratio(t) for t in padded]) == (ints, L)
    assert common_denominator([]) == ([], 1)


@pytest.mark.parametrize(
    "token, message",
    [
        ("1e-20000", "nonzero value 1e-20000 is below the least float"),
        ("-1e-20000", "nonzero value -1e-20000 is below the least float"),
        ("0." + "0" * 400 + "1", "is below the least float"),
        ("2.4703282292062327e-324", "is below the least float"),
        ("1e400", "value 1e400 is beyond the largest float"),
        ("1" + "0" * 400, "is beyond the largest float"),
        ("1.797693134862315808e308", "is beyond the largest float"),
        ("1/" + "7" * 400, "is below the least float"),
        ("-" + "7" * 400 + "/3", "is beyond the largest float"),
        # far past both ends: refused before any power of ten is built
        ("1e-99999999999", "is below the least float"),
        ("9e99999999999", "is beyond the largest float"),
    ],
)
def test_exact_ratio_refuses_values_no_float_holds(token, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        exact_ratio(token)


def _no_fraction(*args):
    raise AssertionError("Fraction called")


@pytest.mark.parametrize(
    "token, message",
    [
        (" 1e-200000", "nonzero value  1e-200000 is below the least float"),
        ("١e-400000", "nonzero value ١e-400000 is below the least float"),
        (" 1e-800000", "nonzero value  1e-800000 is below the least float"),
        (" 1e800000", "value  1e800000 is beyond the largest float"),
        ("1_0e-800000", "nonzero value 1_0e-800000 is below the least float"),
    ],
)
def test_exact_ratio_refuses_fraction_spellings_before_fraction_reads_them(token, message, monkeypatch):
    # whitespace, "_" and non-ASCII digits take Fraction's path; a far
    # exponent is refused before Fraction would build 10**|exponent|
    monkeypatch.setattr(values, "Fraction", _no_fraction)
    with pytest.raises(ValueError, match=re.escape(message)):
        exact_ratio(token)


def test_exact_ratio_reads_a_zero_fraction_spelling_without_its_power(monkeypatch):
    monkeypatch.setattr(values, "Fraction", _no_fraction)
    assert exact_ratio(" 0e-900000") == (0, 1)
    assert exact_ratio("٠.0e900000") == (0, 1)


def test_exact_reader_takes_every_float_the_writer_writes_and_names_the_line(tmp_path):
    extremes = [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.0]
    p = tmp_path / "v.txt"
    save_values(extremes, p)
    # %.17g of the least subnormal lies below 2**-1074 but rounds to it
    assert [a / b for a, b in parse_values(p, number=exact_ratio)] == extremes
    p.write_text("0,0.5\n1,1e-20000\n")
    with pytest.raises(ValueFormatError, match=r"v\.txt:2: nonzero value 1e-20000 is below the least float$"):
        parse_values(p, number=exact_ratio)
    # the float reader keeps reading an underflowing token as 0.0
    assert load_values(p).means.tolist() == [0.5, 0.0]
