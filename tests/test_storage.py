"""Unit tests for the storage layer: datatypes, columns, tables, catalog, buffer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CatalogError, SchemaError
from repro.storage import BufferManager, Catalog, Column, DataType, Table
from repro.storage.column import concat_columns
from repro.storage.datatypes import coerce_to_numpy, infer_datatype
from repro.storage.table import ForeignKey


class TestDataTypes:
    def test_infer_int(self):
        assert infer_datatype([1, 2, 3]) is DataType.INT64

    def test_infer_float(self):
        assert infer_datatype([1.5, 2.5]) is DataType.FLOAT64

    def test_infer_string(self):
        assert infer_datatype(["a", "b"]) is DataType.STRING

    def test_infer_bool(self):
        assert infer_datatype([True, False]) is DataType.BOOL

    def test_infer_empty_raises(self):
        with pytest.raises(SchemaError):
            infer_datatype([])

    def test_coerce_string_rejected(self):
        with pytest.raises(SchemaError):
            coerce_to_numpy(["a"], DataType.STRING)

    def test_integer_backed(self):
        assert DataType.INT64.is_integer_backed
        assert DataType.STRING.is_integer_backed
        assert DataType.DATE.is_integer_backed
        assert not DataType.FLOAT64.is_integer_backed


class TestColumn:
    def test_from_values_int(self):
        col = Column.from_values("x", [3, 1, 2])
        assert col.dtype is DataType.INT64
        assert col.to_list() == [3, 1, 2]
        assert len(col) == 3

    def test_string_dictionary_encoding(self):
        col = Column.from_values("s", ["b", "a", "b", "c"])
        assert col.dtype is DataType.STRING
        assert col.dictionary == ("a", "b", "c")
        assert col.to_list() == ["b", "a", "b", "c"]
        assert col.data.dtype == np.int64

    def test_encode_literal_present_and_absent(self):
        col = Column.from_values("s", ["x", "y"])
        assert col.encode_literal("y") == col.dictionary.index("y")
        assert col.encode_literal("missing") == -1

    def test_take_and_filter(self):
        col = Column.from_values("x", [10, 20, 30, 40])
        assert col.take(np.array([2, 0])).to_list() == [30, 10]
        assert col.filter(np.array([True, False, True, False])).to_list() == [10, 30]

    def test_min_max_and_distinct(self):
        col = Column.from_values("x", [5, 2, 5, 9])
        assert col.min_max() == (2, 9)
        assert col.distinct_count() == 3

    def test_min_max_empty_raises(self):
        col = Column.from_values("x", [1]).filter(np.array([False]))
        with pytest.raises(SchemaError):
            col.min_max()

    def test_concat_string_columns_merges_dictionaries(self):
        a = Column.from_values("s", ["a", "c"])
        b = Column.from_values("s", ["b", "c"])
        merged = a.concat(b)
        assert merged.to_list() == ["a", "c", "b", "c"]
        assert merged.dictionary == ("a", "b", "c")

    def test_concat_type_mismatch_raises(self):
        a = Column.from_values("x", [1, 2])
        b = Column.from_values("x", [1.0])
        with pytest.raises(SchemaError):
            a.concat(b)

    def test_concat_columns_helper(self):
        cols = [Column.from_values("x", [1]), Column.from_values("x", [2, 3])]
        assert concat_columns(cols).to_list() == [1, 2, 3]

    def test_rename(self):
        col = Column.from_values("x", [1]).rename("y")
        assert col.name == "y"

    def test_string_requires_dictionary(self):
        with pytest.raises(SchemaError):
            Column(name="s", dtype=DataType.STRING, data=np.array([0]), dictionary=None)

    @given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_integers_property(self, values):
        col = Column.from_values("x", values)
        assert col.to_list() == values

    @given(st.lists(st.text(min_size=0, max_size=8), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_strings_property(self, values):
        col = Column.from_values("s", values)
        assert col.to_list() == values


class TestTable:
    def _table(self) -> Table:
        return Table.from_dict(
            "t",
            {"id": [1, 2, 3], "name": ["a", "b", "c"], "score": [0.5, 0.25, 1.0]},
            primary_key=["id"],
        )

    def test_basic_properties(self):
        t = self._table()
        assert t.num_rows == 3
        assert t.num_columns == 3
        assert t.column_names == ("id", "name", "score")
        assert t.is_primary_key("id")
        assert not t.is_primary_key("name")

    def test_column_lookup_and_missing(self):
        t = self._table()
        assert t.column("name").to_list() == ["a", "b", "c"]
        assert t.has_column("score")
        with pytest.raises(SchemaError):
            t.column("nope")

    def test_take_filter_select_head(self):
        t = self._table()
        assert t.take(np.array([2, 0])).column("id").to_list() == [3, 1]
        assert t.filter(np.array([False, True, True])).num_rows == 2
        assert t.select(["name"]).column_names == ("name",)
        assert t.head(2).num_rows == 2

    def test_mismatched_lengths_raise(self):
        with pytest.raises(SchemaError):
            Table.from_dict("bad", {"a": [1, 2], "b": [1]})

    def test_duplicate_columns_raise(self):
        cols = (Column.from_values("a", [1]), Column.from_values("a", [2]))
        with pytest.raises(SchemaError):
            Table(name="bad", columns=cols)

    def test_foreign_key_metadata(self):
        t = Table.from_dict(
            "child",
            {"pid": [1, 2]},
            foreign_keys=[ForeignKey("pid", "parent", "id")],
        )
        assert t.is_foreign_key("pid")
        assert not t.is_foreign_key("other")

    def test_unknown_primary_key_raises(self):
        with pytest.raises(SchemaError):
            Table.from_dict("bad", {"a": [1]}, primary_key=["nope"])

    def test_memory_bytes_positive(self):
        assert self._table().memory_bytes() > 0

    def test_to_dict(self):
        assert self._table().to_dict()["name"] == ["a", "b", "c"]


class TestCatalog:
    def test_register_and_lookup(self):
        catalog = Catalog()
        catalog.register(Table.from_dict("t", {"a": [1, 2, 2]}))
        assert catalog.has_table("t")
        assert "t" in catalog
        assert catalog.table("t").num_rows == 3
        assert catalog.statistics("t").num_rows == 3
        assert catalog.statistics("t").distinct("a") == 2

    def test_duplicate_registration_raises(self):
        catalog = Catalog()
        catalog.register(Table.from_dict("t", {"a": [1]}))
        with pytest.raises(CatalogError):
            catalog.register(Table.from_dict("t", {"a": [2]}))
        catalog.register(Table.from_dict("t", {"a": [2, 3]}), replace=True)
        assert catalog.table("t").num_rows == 2

    def test_missing_table_raises(self):
        with pytest.raises(CatalogError):
            Catalog().table("missing")

    def test_unregister(self):
        catalog = Catalog()
        catalog.register(Table.from_dict("t", {"a": [1]}))
        catalog.unregister("t")
        assert not catalog.has_table("t")
        with pytest.raises(CatalogError):
            catalog.unregister("t")

    def test_largest_table_and_total_rows(self):
        catalog = Catalog()
        assert catalog.largest_table() is None
        catalog.register(Table.from_dict("small", {"a": [1]}))
        catalog.register(Table.from_dict("big", {"a": list(range(10))}))
        assert catalog.largest_table() == "big"
        assert catalog.total_rows() == 11
        assert len(catalog) == 2


class TestBufferManager:
    def test_unlimited_memory_never_spills(self):
        buffer = BufferManager(memory_budget_bytes=None)
        buffer.write("a", 1000)
        buffer.write("b", 1000)
        buffer.read("a", 1000)
        assert buffer.stats.evictions == 0
        assert buffer.stats.bytes_written_to_disk == 0
        assert buffer.stats.bytes_served_from_memory == 1000

    def test_eviction_and_reread(self):
        buffer = BufferManager(memory_budget_bytes=1500)
        buffer.write("a", 1000)
        buffer.write("b", 1000)  # evicts a (dirty -> spilled)
        assert buffer.stats.evictions == 1
        assert buffer.stats.bytes_written_to_disk == 1000
        buffer.read("a", 1000)  # must come back from disk
        assert buffer.stats.bytes_read_from_disk == 1000

    def test_registered_disk_read_charged_once_then_cached(self):
        buffer = BufferManager(memory_budget_bytes=None)
        buffer.register_on_disk("base", 5000)
        buffer.read("base", 5000)
        buffer.read("base", 5000)
        assert buffer.stats.bytes_read_from_disk == 5000
        assert buffer.stats.bytes_served_from_memory == 5000

    def test_simulated_seconds_monotone_in_bytes(self):
        a = BufferManager()
        a.read("x", 10_000_000)
        b = BufferManager()
        b.read("x", 20_000_000)
        assert b.stats.simulated_seconds() > a.stats.simulated_seconds()

    def test_release(self):
        buffer = BufferManager(memory_budget_bytes=100)
        buffer.write("a", 80)
        buffer.release("a")
        assert buffer.resident_bytes == 0


class TestEncodedColumnStorage:
    """Encoded buffers through the storage layer: round-trips."""

    @given(
        st.lists(st.integers(min_value=-100, max_value=100), min_size=1, max_size=500),
        st.sampled_from([None, 3, 64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_choose_encoding_roundtrip_property(self, values, stride):
        from repro.storage.encodings import choose_encoding

        col = Column.from_values("x", values)
        encoded = choose_encoding(col, block_rows=32)
        if encoded is None:
            return  # raw is always a valid choice
        np.testing.assert_array_equal(encoded.decode(), col.data)
        if stride is not None:
            selection = np.arange(0, len(values), stride, dtype=np.int64)
            np.testing.assert_array_equal(encoded.decode(selection), col.data[selection])
