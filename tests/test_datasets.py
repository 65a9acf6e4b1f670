import numpy as np
import pytest

from ddetest.datasets import FIXTURES, _parse_text, load_dataset
from ddetest.errors import DataError, UsageError


def test_hardle_fixture():
    ds = load_dataset("faithful-hardle")
    assert ds.n == 272
    assert ds.values.min() == 43.0 and ds.values.max() == 96.0
    assert ds.values.sum() == 19284.0  # documented mean 70.897059
    assert ds.values.mean() == pytest.approx(70.897059, abs=1e-6)


def test_azzalini_fixture():
    ds = load_dataset("faithful-azzalini")
    assert ds.n == 299
    assert ds.values.min() == 43.0 and ds.values.max() == 108.0
    assert np.count_nonzero(ds.values > 100) == 1
    assert ds.values.mean() == pytest.approx(72.314381, abs=1e-6)


def test_fixture_registry_is_complete():
    assert set(FIXTURES) == {"faithful-hardle", "faithful-azzalini"}


def test_csv_with_header_and_named_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("id,value\n1,2.5\n2,3.5\n\n3,4.5\n")
    ds = load_dataset(str(p), column="value")
    assert ds.values.tolist() == [2.5, 3.5, 4.5]  # blank line skipped
    ds0 = load_dataset(str(p), column=1)
    assert np.array_equal(ds0.values, ds.values)


def test_plain_text_single_column(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("1.0\n2.0\n3.0\n")
    assert load_dataset(str(p)).values.tolist() == [1.0, 2.0, 3.0]


def test_parse_error_names_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("value\n1.0\n2.0\noops\n4.0\n")
    with pytest.raises(DataError, match="line 4"):
        load_dataset(str(p), column="value")


def test_non_finite_rejected(tmp_path):
    p = tmp_path / "inf.csv"
    p.write_text("value\n1.0\ninf\n")
    with pytest.raises(DataError, match="line 3"):
        load_dataset(str(p), column="value")


def test_missing_file_and_missing_column(tmp_path):
    with pytest.raises(DataError):
        load_dataset(str(tmp_path / "nope.csv"))
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(DataError, match="no column named"):
        load_dataset(str(p), column="c")


def test_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("\n\n")
    with pytest.raises(DataError):
        load_dataset(str(p))


# The parser's error contract: for each input, the exact class and message.
# "src" stands in for the source a file is named by.
_PARSE_CASES = [
    ("empty", "", 0, "src: no data lines found"),
    ("blank-only", "\n  \n\t\n", 0, "src: no data lines found"),
    ("header-only", "value\n", "value", "src: no numeric rows in column 'value'"),
    ("header-only-index", "value\n\n", 0, "src: no numeric rows in column 0"),
    ("short-row", "a,b\n1,2\n3\n", 1, "src, line 3: no column 1 (1 cells)"),
    ("short-row-whitespace", "1 2\n\n3 4\n5\n", 1, "src, line 4: no column 1 (1 cells)"),
    ("unparsable", "1.0\n2.0\noops\n4.0\n", 0, "src, line 3: could not parse 'oops' as a number"),
    ("unparsable-csv", "1,2\n3, x \n", 1, "src, line 2: could not parse 'x' as a number"),
    ("inf", "value\n1.0\ninf\n", "value", "src, line 3: non-finite value 'inf'"),
    ("nan", "1\n-nan\n", 0, "src, line 2: non-finite value '-nan'"),
    ("missing-named", "a,b\n1,2\n", "c", "src: no column named 'c' (columns: ['a', 'b'])"),
    ("no-header", "1\n2\n", "value", "src: no column named 'value' (file has no header)"),
    ("bad-after-good", "1\n2\n\n3\n4x\n", 0, "src, line 5: could not parse '4x' as a number"),
    ("first-bad-wins", "1\ninf\nx\n", 0, "src, line 2: non-finite value 'inf'"),
]


@pytest.mark.parametrize("text, column, message", [c[1:] for c in _PARSE_CASES],
                         ids=[c[0] for c in _PARSE_CASES])
def test_parse_error_contract(text, column, message):
    with pytest.raises(DataError) as info:
        _parse_text(text, column, "src", "name")
    assert type(info.value) is DataError
    assert str(info.value) == message


_PARSE_VALUES = [
    ("quoted-csv", 'id,value\n1,"2.5"\n2," 3.5 "\n', "value", [2.5, 3.5]),
    # a quote left open ends with its line: each line has its own reader
    ("unbalanced-quote", 'id,value\n1,"2.5\n2,3.5\n', "value", [2.5, 3.5]),
    ("unicode-whitespace", "1.0 2.0\n3.0　4.0\n \n5.0\t6.0\xa0\n", 1, [2.0, 4.0, 6.0]),
    ("underscore", "1_000\n2\n", 0, [1000.0, 2.0]),
    ("line-breaks", "  1.5  \n\t2.5\r\n3.5\x85 4\n", 0, [1.5, 2.5, 3.5, 4.0]),
]


@pytest.mark.parametrize("text, column, values", [c[1:] for c in _PARSE_VALUES],
                         ids=[c[0] for c in _PARSE_VALUES])
def test_parse_accepts(text, column, values):
    assert _parse_text(text, column, "src", "name").values.tolist() == values


@pytest.mark.parametrize("delimiter", [" ", ",", "\t"])
def test_parsed_values_are_float_of_each_cell(delimiter):
    rng = np.random.default_rng(5)
    cells = [repr(v) for v in (rng.lognormal(1.0, 3.0, 500) * rng.choice([-1.0, 1.0], 500)).tolist()]
    cells += ["1e-320", "-0.0", "  7.25", "3.0000000000000004", "1_0.5"]
    text = "".join(f"{i}{delimiter}{c}\n" for i, c in enumerate(cells))
    values = _parse_text(text, 1, "src", "name").values
    expected = np.array([float(c) for c in cells])
    assert values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("column", [-1, -3])
def test_negative_column_is_usage_error(tmp_path, column):
    # an index counts from the first column; -1 does not mean the last one
    p = tmp_path / "five.txt"
    p.write_text("1 2 3\n4 5 6\n7 8 9\n1 1 2\n3 5 8\n")
    with pytest.raises(UsageError) as info:
        load_dataset(str(p), column=column)
    assert str(info.value) == f"column index must be >= 0, got {column}"
