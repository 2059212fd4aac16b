"""An UPDATE keeps a value whose SET expression has its column's type.

The plans an UPDATE reads through return physical values. A column set
to an expression of its own type (an untouched column included) keeps
its physical value, checked as a coerced one is; only a value of another
type is presented, then coerced. A DECIMAL past 2^53 units therefore
keeps its low digits, where presenting it as a float lost them.
"""

import datetime

import pytest

from repro import Database, StoreConfig
from repro.errors import ConstraintError, TypeMismatchError

STORAGES = ["columnstore", "rowstore", "both"]


@pytest.fixture(params=STORAGES)
def db(request):
    database = Database(StoreConfig(bulk_load_threshold=4, rowgroup_size=8))
    database.sql(
        "CREATE TABLE t (k INT NOT NULL, d DECIMAL(18,2), i INT, day DATE, "
        f"s VARCHAR(3), f FLOAT) USING {request.param}"
    )
    database.sql("INSERT INTO t VALUES (1, 99999999999999, 100000, '2020-01-02', 'ab', 1.5)")
    return database


@pytest.mark.parametrize("mode", ["batch", "row"])
def test_a_decimal_past_two_to_the_53_keeps_its_cents(db, mode):
    db.sql("UPDATE t SET d = d + 0.01", mode=mode)
    assert db.sql("SELECT d - 99999999999999 FROM t").rows == [(0.01,)]
    db.sql("UPDATE t SET k = k + 1", mode=mode)  # d is untouched: kept too
    assert db.sql("SELECT d - 99999999999999 FROM t").rows == [(0.01,)]


def test_untouched_columns_come_back_unchanged(db):
    db.sql("UPDATE t SET f = f * 2")
    assert db.sql("SELECT * FROM t").rows == [
        (1, 99999999999999.0, 100000, datetime.date(2020, 1, 2), "ab", 3.0)
    ]


def test_own_type_values_are_still_checked(db):
    with pytest.raises(TypeMismatchError, match="out of range for int"):
        db.sql("UPDATE t SET i = i * 100000")
    with pytest.raises(ConstraintError, match="NOT NULL"):
        db.sql("UPDATE t SET k = NULL")
    with pytest.raises(TypeMismatchError, match="exceeds VARCHAR"):
        db.sql("UPDATE t SET s = 'abcd'")
    assert db.sql("SELECT i, s FROM t").rows == [(100000, "ab")]


def test_across_types_a_value_is_presented_then_coerced(db):
    db.sql("UPDATE t SET d = d * 0.5, f = i, day = '2021-03-04'")
    assert db.sql("SELECT d, f, day FROM t").rows == [
        (49999999999999.5, 100000.0, datetime.date(2021, 3, 4))
    ]
