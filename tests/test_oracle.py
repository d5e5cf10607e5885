"""The DuckDB oracle can fail: ``assert_equivalent`` raises on a changed
value, a missing row and a column-name mismatch, and ignores the order
of rows and of columns."""
import pandas as pd
import pytest

from repro.oracle import assert_equivalent

T = pd.DataFrame({"id": [0, 1, 2, 3], "deg": [2, 1, 1, 0]})
SQL = "SELECT id, deg FROM t"


def test_oracle_passes_on_permuted_rows_and_columns(spark):
    got = spark.createDataFrame(T.iloc[[2, 0, 3, 1]][["deg", "id"]])
    assert_equivalent(got, SQL, t=T)


@pytest.mark.parametrize(
    "got,match",
    [
        (T.assign(deg=[2, 1, 2, 0]), "are different"),
        (T.iloc[:3], "shape mismatch"),
        (T.rename(columns={"deg": "degree"}), "column mismatch"),
    ],
    ids=["changed-value", "missing-row", "column-name"],
)
def test_oracle_raises(spark, got, match):
    with pytest.raises(AssertionError, match=match):
        assert_equivalent(spark.createDataFrame(got), SQL, t=T)
