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


@pytest.mark.parametrize("x", [-1, 3])
def test_table_refuses_a_node_out_of_range(x):
    # -1 would otherwise read the last node: a gap of 0.8 here
    t = ValueTable(np.array([0.1, 0.5, 0.9]))
    for read in (t.value, t.gap_to_best):
        with pytest.raises(ValueError, match=rf"^node {x} out of range$"):
            read(x)


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


@pytest.mark.parametrize(
    "token",
    ["2.5e-3", " 1.5", "-0.25\t", "1_0.2_5", "1_0e-1_2", "\u0661\u0662.\u0665", " -\u0663e-\u0662 ", "+.5E3"],
)
def test_exact_ratio_reads_every_decimal_spelling_without_fraction(token, monkeypatch):
    want = Fraction(token)
    monkeypatch.setattr(values, "Fraction", _no_fraction)
    p, q = exact_ratio(token)
    assert type(p) is int and type(q) is int and q > 0
    assert Fraction(p, q) == want


@pytest.mark.parametrize("token", ["1/3", " -2/4 ", "1.5x", "one", ""])
def test_exact_ratio_hands_ratios_and_other_tokens_to_fraction(token, monkeypatch):
    monkeypatch.setattr(values, "Fraction", _no_fraction)
    with pytest.raises(AssertionError, match="Fraction called"):
        exact_ratio(token)


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


def per_line_save(table, path):
    """The writer save_values replaced: one write per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, v in enumerate(ValueTable(table).means):
            fh.write(f"{i},{float(v):.17g}\n")


# signed zeros, subnormals, the float extremes, integral values and any float
WRITTEN_VALUES = st.lists(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, 1e-4, 1e-5, 0.1])
    | st.integers(-(10**17), 10**17).map(float)
    | st.floats(allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(table=WRITTEN_VALUES)
@example(table=[-0.0, 5e-324, 1e308, 3.0, 1e17, 123456789012345678.0])
def test_save_values_writes_the_per_line_writers_bytes(table, tmp_path_factory):
    out = tmp_path_factory.mktemp("save")
    save_values(table, out / "new.txt")
    per_line_save(table, out / "old.txt")
    assert (out / "new.txt").read_bytes() == (out / "old.txt").read_bytes()


def _walk(path, n):
    """parse_values' line walk with exact_ratio: a number that is not
    exact_ratio itself never takes the bulk pass."""
    return parse_values(path, n, number=lambda token: exact_ratio(token))


def _exact(path, n):
    return parse_values(path, n, number=exact_ratio)


def _in_bulk_range(v):
    # '%.17g' writes these as m / 10**k with -250 <= k <= 266: inside the bulk range
    return v == 0 or 1e-250 <= abs(v) <= 1e250


@settings(max_examples=300, deadline=None)
@given(table=WRITTEN_VALUES)
@example(table=[0.0, -0.0, 1.0, 0.00012345678901234567, -123.25, 1e16, 2.5e-250])
@example(table=[5e-324, 0.5])  # a subnormal's exponent sends the file to the walk
@example(table=[1e308, 0.5])
def test_bulk_exact_pass_matches_the_line_walk_on_written_files(table, tmp_path_factory):
    p = tmp_path_factory.mktemp("bulk") / "v.txt"
    save_values(table, p)
    n = len(table)
    got = values._bulk_exact(p.read_bytes(), n)
    want = _walk(p, n)
    assert got is None or got == want
    if all(_in_bulk_range(v) for v in table):
        assert got == want
    assert _exact(p, n) == want
    assert _exact(p, None) == want


def _with_token(token):
    def mutate(lines, i):
        return "".join(f"{j},{token}\n" if j == i else f"{line}\n" for j, line in enumerate(lines))

    return mutate


def _swap_ids(lines, i):
    lines = list(lines)
    j = (i + 1) % len(lines)
    lines[i], lines[j] = lines[j], lines[i]
    return "".join(f"{line}\n" for line in lines)


def _id_gap(lines, i):
    value = lines[-1].split(",")[1]
    return "".join(f"{line}\n" for line in lines[:-1]) + f"{len(lines)},{value}\n"


# file mutations that the bulk pass must leave to the walk; (lines, i) -> text
MUTATIONS = {
    "crlf": lambda lines, i: "".join(f"{line}\r\n" for line in lines),
    "trailing-blank-line": lambda lines, i: "".join(f"{line}\n" for line in lines) + "\n",
    "no-final-newline": lambda lines, i: "\n".join(lines),
    "plus": _with_token("+1.5"),
    "underscore": _with_token("1_0"),
    "arabic-indic-digits": _with_token("١٢"),
    "ratio": _with_token("1/3"),
    "trailing-zero": _with_token("1.50"),
    "no-whole-digits": _with_token(".5"),
    "no-fraction-digits": _with_token("5."),
    "below-float": _with_token("1e-400"),
    "beyond-float": _with_token("1e400"),
    "5000-digits": _with_token("1" * 5000),
    "ids-out-of-order": _swap_ids,
    "id-gap": _id_gap,
    "empty": lambda lines, i: "",
}


@settings(max_examples=300, deadline=None)
@given(
    table=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=12),
    mutation=st.sampled_from(sorted(MUTATIONS) + ["wrong-count"]),
    data=st.data(),
)
def test_bulk_exact_pass_leaves_other_files_to_the_line_walk(table, mutation, data, tmp_path_factory):
    p = tmp_path_factory.mktemp("mutated") / "v.txt"
    save_values(table, p)
    n = len(table)
    if mutation == "wrong-count":
        n += data.draw(st.sampled_from([-1, 1]))
    else:
        lines = p.read_text().splitlines()
        p.write_bytes(MUTATIONS[mutation](lines, data.draw(st.integers(0, n - 1))).encode("utf-8"))
    assert values._bulk_exact(p.read_bytes(), n) is None
    assert _outcome(lambda path: _exact(path, n), p) == _outcome(lambda path: _walk(path, n), p)


# points where the bulk pass's arithmetic assumes none; without the tests
# that catch them, it would misread the files marked *
MISPLACED_POINTS = {
    "two-in-a-value*": "0,0.5\n1,-1.25\n2,1.2.5\n",  # on the last line
    "in-an-id": "0.5,1\n",
    "in-an-id-that-still-reads-6*": "".join(f"{j},1\n" for j in range(6)) + "0.1,2\n",
    "after-a-plus-exponent": "0,5e+1.5\n",
    "after-a-minus-exponent*": "0,5e-1.5\n",
}


@pytest.mark.parametrize("case", MISPLACED_POINTS)
def test_bulk_exact_pass_leaves_misplaced_points_to_the_line_walk(case, tmp_path):
    text = MISPLACED_POINTS[case]
    p = tmp_path / "v.txt"
    p.write_text(text)
    n = text.count("\n")
    assert values._bulk_exact(p.read_bytes(), n) is None
    assert _outcome(lambda path: _exact(path, n), p) == _outcome(lambda path: _walk(path, n), p)


def test_a_written_file_takes_the_bulk_pass(tmp_path, monkeypatch):
    p = tmp_path / "v.txt"
    table = [0.0, -0.0, 0.031360000000000013, -1.5, 3.0, 1e-05, 2.5e+200, 0.00012345678901234567]
    save_values(table, p)
    want = _walk(p, len(table))
    assert [a / b for a, b in want] == table

    def no_exact_ratio(token):
        raise AssertionError("exact_ratio called")

    monkeypatch.setattr(values, "exact_ratio", no_exact_ratio)
    assert parse_values(p, len(table), number=values.exact_ratio) == want
