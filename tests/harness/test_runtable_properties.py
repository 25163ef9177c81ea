"""Property tests for the factorial run-table engine.

The contracts pinned here are what every other experiment layer builds
on: cell count is exactly the product of the level counts, expansion
order is deterministic (row-major in declaration order, last factor
fastest), cell ids are content-addressed (stable under renumbering,
unique per assignment), and table/config hashing survives a JSON
round-trip — the resume and compare machinery match cells by these
hashes, so any drift would silently corrupt longitudinal data.
"""

from __future__ import annotations

import itertools
import json
import math

from hypothesis import given
from hypothesis import strategies as st

from repro.harness.config import BenchConfig
from repro.harness.experiments import RunTable, get_table, table_names

# -- strategies -------------------------------------------------------------

_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8
)
_levels = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", max_size=10),
)


@st.composite
def factorial_tables(draw) -> RunTable:
    n_factors = draw(st.integers(min_value=1, max_value=4))
    factor_names = draw(
        st.lists(_names, min_size=n_factors, max_size=n_factors, unique=True)
    )
    factors = {
        name: tuple(
            draw(st.lists(_levels, min_size=1, max_size=4, unique=True))
        )
        for name in factor_names
    }
    return RunTable(
        name=draw(_names),
        workload=draw(st.sampled_from(["pipeline", "ops_matrix", "fusion"])),
        factors=factors,
        repeats=draw(st.integers(min_value=1, max_value=5)),
    )


# -- expansion --------------------------------------------------------------


@given(factorial_tables())
def test_cell_count_is_product_of_level_counts(table):
    expected = math.prod(len(v) for v in table.factors.values())
    cells = table.expand()
    assert table.n_cells == expected
    assert len(cells) == expected
    assert [c.index for c in cells] == list(range(expected))


@given(factorial_tables())
def test_expansion_is_deterministic_and_row_major(table):
    first = table.expand()
    second = table.expand()
    assert first == second
    # Row-major over declaration order, last factor varying fastest:
    # exactly itertools.product over the level tuples.
    names = list(table.factors)
    expected = [
        dict(zip(names, combo))
        for combo in itertools.product(*(table.factors[n] for n in names))
    ]
    assert [dict(c.factors) for c in first] == expected


@given(factorial_tables())
def test_cell_ids_are_unique_and_content_addressed(table):
    cells = table.expand()
    assert len({c.cell_id for c in cells}) == len(cells)
    # Content addressing: a table listing the same factors in a different
    # declaration order yields the same ids for the same assignments.
    reversed_table = RunTable(
        name=table.name,
        workload=table.workload,
        factors=dict(reversed(list(table.factors.items()))),
        repeats=table.repeats,
    )
    by_assignment = {
        tuple(sorted(c.factors.items())): c.cell_id for c in cells
    }
    for cell in reversed_table.expand():
        key = tuple(sorted(cell.factors.items()))
        assert by_assignment[key] == cell.cell_id


# -- serialization / hashing ------------------------------------------------


@given(factorial_tables())
def test_table_round_trips_through_json_text(table):
    doc = json.loads(json.dumps(table.to_json()))
    restored = RunTable.from_json(doc)
    assert restored.expand() == table.expand()
    cfg = BenchConfig()
    assert restored.config_hash(cfg) == table.config_hash(cfg)


@given(factorial_tables(), st.integers(min_value=0, max_value=2**31))
def test_config_hash_depends_on_bench_seed(table, seed):
    cfg_a = BenchConfig(seed=seed)
    cfg_b = BenchConfig(seed=seed + 1)
    assert table.config_hash(cfg_a) != table.config_hash(cfg_b)
    assert table.config_hash(cfg_a) == table.config_hash(BenchConfig(seed=seed))


# -- predefined tables ------------------------------------------------------


def test_predefined_tables_all_expand():
    for name in table_names():
        table = get_table(name)
        cells = table.expand()
        assert cells, name
        assert len(cells) == table.n_cells, name


def test_perf_smoke_table_is_the_ci_factorial():
    table = get_table("perf-smoke")
    assert table.workload == "pipeline"
    # 2 backends x 2 worker counts x 2 chain depths x 2 bitpack kernels
    assert table.n_cells == 16
    assert table.factors["kernel"] == ("bitarray", "wordpack")
