"""Driver-style correctness gate, run locally at sf0.001: every query
with an oracle must match DuckDB on row count, column names, and
order-insensitive values."""

import math

import duckdb
import pandas as pd
import pytest

import __ray_entry__ as entrymod

SF = __import__("os").environ.get("PARITY_SF", "/root/testdata/sf0.001")
TABLES = "region nation customer supplier part orders lineitem documents".split()


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    return c


def _to_pandas(result):
    import pyarrow as pa

    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()  # ray Dataset


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]").astype(str)
        elif df[c].dtype.kind == "f":
            df[c] = df[c].round(6)
        elif df[c].dtype.kind in "iu":
            df[c] = df[c].astype("int64")
        elif df[c].dtype.kind == "b":
            df[c] = df[c].astype(bool)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


QUERIES = entrymod.queries()
ORACLES = entrymod.oracle_sql()


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracle_parity(ray_session, con, name):
    raw_got = _to_pandas(QUERIES[name](SF))
    raw_want = con.execute(ORACLES[name]).df()
    got = _canon(raw_got)
    want = _canon(raw_want)
    assert list(got.columns) == list(want.columns), (
        f"{name}: columns {list(got.columns)} != {list(want.columns)}"
    )
    # dtype-KIND parity BEFORE canonicalization: the driver hashes raw
    # values, so an int64 engine column vs a float64 oracle column
    # hash-mismatches even when the values are equal (this is exactly
    # what bit round 1's doc_lang_counts)
    for col in got.columns:
        gk = raw_got[col].dtype.kind
        wk = raw_want[col].dtype.kind
        gk = "i" if gk == "u" else gk
        wk = "i" if wk == "u" else wk
        assert gk == wk, (
            f"{name}.{col}: engine dtype kind {raw_got[col].dtype} vs "
            f"oracle {raw_want[col].dtype} — would hash-mismatch in the driver"
        )
    assert len(got) == len(want), f"{name}: {len(got)} rows != {len(want)}"
    pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=False,
                                  rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("name", sorted(set(QUERIES) - set(ORACLES)))
def test_rows_only_queries_run(ray_session, name):
    got = _to_pandas(QUERIES[name](SF))
    assert len(got) >= 0


def test_bench_query_suite_names_registered():
    import bench

    assert set(bench.QUERY_SUITE) <= set(QUERIES), (
        sorted(set(bench.QUERY_SUITE) - set(QUERIES)))


def test_entry_smoke(ray_session):
    ds = entrymod.entry()
    assert ds.count() > 0
