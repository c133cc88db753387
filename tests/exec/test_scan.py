"""The scan executor vs the dense NumPy reference, across every scheme.

The property this whole layer rides on: for any predicate, any projection,
and any scheme, the scan's output is bit-identical to densifying first and
masking with NumPy — push-down changes the execution strategy, never the
answer.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.compression.registry import available_schemes, get_scheme
from repro.exec.predicates import COMPARE_OPS, Compare
from repro.exec.scan import scan_shards

ALL_SCHEMES = available_schemes()


def quantised(rng, rows=60, cols=7, domain=(0.0, 0.5, 1.0, 2.5)):
    return rng.choice(domain, size=(rows, cols), p=(0.5, 0.2, 0.2, 0.1))


def random_predicate(rng, cols):
    """A random expression tree over random leaves (depth <= 2)."""
    ops = list(COMPARE_OPS)
    values = (0.0, 0.5, 1.0, 2.5, 0.7)

    def leaf():
        return Compare(int(rng.integers(cols)), ops[rng.integers(len(ops))],
                       values[rng.integers(len(values))])

    predicate = leaf()
    for _ in range(int(rng.integers(0, 3))):
        other = leaf()
        kind = rng.integers(3)
        if kind == 0:
            predicate = predicate & other
        elif kind == 1:
            predicate = predicate | other
        else:
            predicate = predicate & ~other
    return predicate


class _EvalDense:
    def __init__(self, dense):
        self.dense = dense

    def compare(self, col, op, value):
        return COMPARE_OPS[op](self.dense[:, col], value)


class TestScanMatrixAllSchemes:
    """Random predicates x every scheme x both strategies == dense NumPy."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_random_predicates_match_dense_reference(self, scheme):
        rng = np.random.default_rng(hash(scheme) % 2**32)
        for trial in range(8):
            dense = quantised(rng)
            matrix = get_scheme(scheme).compress(dense)
            predicate = random_predicate(rng, dense.shape[1])
            expected_mask = predicate.evaluate(_EvalDense(dense))
            for pushdown in (True, False):
                result = scan_shards([(matrix, 0)], where=predicate, pushdown=pushdown)
                np.testing.assert_array_equal(result.row_ids, np.flatnonzero(expected_mask))
                np.testing.assert_array_equal(result.rows, dense[expected_mask])

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_projection_matches_dense_reference(self, scheme):
        rng = np.random.default_rng(7)
        dense = quantised(rng)
        matrix = get_scheme(scheme).compress(dense)
        result = scan_shards([(matrix, 0)], columns=[5, 0], where="c1 >= 0.5")
        mask = dense[:, 1] >= 0.5
        np.testing.assert_array_equal(result.rows, dense[mask][:, [5, 0]])
        np.testing.assert_array_equal(result.row_ids, np.flatnonzero(mask))

    @pytest.mark.parametrize("scheme", ("CVI", "DVI"))
    def test_value_indexed_schemes_push_down(self, scheme):
        rng = np.random.default_rng(1)
        matrix = get_scheme(scheme).compress(quantised(rng))
        assert scan_shards([(matrix, 0)], where="c0 == 0.5").pushdown_shards == 1

    @pytest.mark.parametrize("scheme", ("DEN", "CSR", "CLA", "Snappy", "Gzip"))
    def test_other_schemes_fall_back(self, scheme):
        rng = np.random.default_rng(1)
        matrix = get_scheme(scheme).compress(quantised(rng))
        assert scan_shards([(matrix, 0)], where="c0 == 0.5").pushdown_shards == 0

    def test_no_predicate_selects_everything(self):
        rng = np.random.default_rng(2)
        dense = quantised(rng)
        matrix = get_scheme("DVI").compress(dense)
        result = scan_shards([(matrix, 0)])
        np.testing.assert_array_equal(result.rows, dense)
        np.testing.assert_array_equal(result.row_ids, np.arange(dense.shape[0]))

    def test_column_out_of_range(self):
        matrix = get_scheme("DEN").compress(np.zeros((4, 3)))
        with pytest.raises(IndexError, match="column"):
            scan_shards([(matrix, 0)], where="c9 == 1")


class TestImplicitZeros:
    """CVI's unstored cells must answer predicates exactly like stored 0.0."""

    @pytest.mark.parametrize("op", sorted(COMPARE_OPS))
    def test_cvi_zero_semantics_every_operator(self, op):
        rng = np.random.default_rng(5)
        dense = quantised(rng, rows=40)
        dense[7] = 0.0  # one fully-implicit row
        matrix = get_scheme("CVI").compress(dense)
        for value in (0.0, 0.5, -1.0):
            predicate = Compare(2, op, value)
            expected = predicate.evaluate(_EvalDense(dense))
            result = scan_shards([(matrix, 0)], where=predicate)
            assert result.pushdown_shards == 1
            np.testing.assert_array_equal(result.row_ids, np.flatnonzero(expected))


class TestNonFiniteCells:
    """Push-down answers exactly what the dense fallback does, NaN and ±inf cells included."""

    DOMAIN = (0.0, 0.5, 1.0, 2.5, np.nan, np.inf, -np.inf)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_pushdown_equals_fallback(self, scheme):
        rng = np.random.default_rng(31)
        dense = rng.choice(self.DOMAIN, size=(80, 6), p=(0.4, 0.15, 0.15, 0.1, 0.1, 0.05, 0.05))
        shards = [(get_scheme(scheme).compress(dense[start : start + 20]), start)
                  for start in range(0, 80, 20)]
        agg = "count,sum:c4,mean:c1,min:c4,max:c2"
        for _ in range(6):
            predicate = random_predicate(rng, dense.shape[1])
            scans = [
                {"where": predicate},
                {"where": predicate, "columns": [4, 1, 4]},
                {"where": predicate, "agg": agg},
            ]
            for kwargs in scans:
                pushed = scan_shards(iter(shards), **kwargs)
                fallback = scan_shards(iter(shards), pushdown=False, **kwargs)
                if pushed.is_aggregate:  # repr: exact floats, and every NaN reads "nan"
                    assert repr(pushed.aggregates) == repr(fallback.aggregates), kwargs
                else:
                    expected = predicate.evaluate(_EvalDense(dense))
                    np.testing.assert_array_equal(pushed.row_ids, np.flatnonzero(expected))
                    np.testing.assert_array_equal(pushed.row_ids, fallback.row_ids)
                    assert np.array_equal(pushed.rows.view(np.uint64),
                                          fallback.rows.view(np.uint64)), kwargs


class TestOnePassOverTheTree:
    """A TOC shard's scan takes every column it touches out of one pass over ``C'``."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        from repro.core import ops, toc
        from repro.core.toc import TOCMatrix

        calls: Counter = Counter()
        for owner, name in ((toc, "build_decode_tree"), (ops, "matrix_columns"),
                            (TOCMatrix, "to_dense"), (TOCMatrix, "row_slice")):
            original = getattr(owner, name)

            def counted(*args, _original=original, _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(owner, name, counted)
        return calls

    @pytest.fixture()
    def shard(self):
        """A shard as a scan reads it: parsed from its bytes, no tree built yet."""
        dense = quantised(np.random.default_rng(12), rows=200)
        scheme = get_scheme("TOC")
        return dense, scheme.decompress_bytes(scheme.compress(dense).to_bytes())

    def test_a_projected_selection(self, shard, calls):
        dense, matrix = shard
        result = scan_shards(iter([(matrix, 0)]), where="c0 >= 1", columns=[0, 1, 2])
        np.testing.assert_array_equal(result.rows, dense[dense[:, 0] >= 1][:, :3])
        assert calls == Counter(build_decode_tree=1, matrix_columns=1)

    def test_an_aggregate(self, shard, calls):
        dense, matrix = shard
        result = scan_shards(iter([(matrix, 0)]), where="c0 >= 1", agg="count,sum:c5")
        assert result.aggregates["sum(c5)"] == dense[dense[:, 0] >= 1, 5].sum()
        assert calls == Counter(build_decode_tree=1, matrix_columns=1)

    def test_a_selective_unprojected_selection_gathers_only_its_rows(self, shard, calls):
        dense, matrix = shard
        result = scan_shards(iter([(matrix, 0)]), where="c0 >= 2.5 and c1 >= 1")
        assert 0 < result.n_rows_matched <= 0.25 * dense.shape[0]
        np.testing.assert_array_equal(result.rows, dense[(dense[:, 0] >= 2.5) & (dense[:, 1] >= 1)])
        assert calls == Counter(build_decode_tree=1, matrix_columns=1, row_slice=1)


class TestWhatAScanExtracts:
    """A dictionary probe is never swapped for a column decode, and TOC reads ``C'`` once."""

    @pytest.fixture()
    def extracted(self, monkeypatch):
        """Every ``columns`` request and every full decode, by scheme."""
        from repro.compression.cvi import CVIMatrix
        from repro.compression.dvi import DVIMatrix
        from repro.core.toc import TOCMatrix

        extracted: list[tuple[str, list[int]]] = []
        for cls in (CVIMatrix, DVIMatrix, TOCMatrix):
            columns, to_dense = cls.columns, cls.to_dense

            def counted_columns(self, cols, _original=columns):
                extracted.append((self.scheme_name, list(cols)))
                return _original(self, cols)

            def counted_to_dense(self, _original=to_dense):
                extracted.append((self.scheme_name, "to_dense"))
                return _original(self)

            monkeypatch.setattr(cls, "columns", counted_columns)
            monkeypatch.setattr(cls, "to_dense", counted_to_dense)
        return extracted

    @staticmethod
    def shard(scheme):
        dense = quantised(np.random.default_rng(14), rows=200)
        codec = get_scheme(scheme)
        return dense, codec.decompress_bytes(codec.compress(dense).to_bytes())

    @pytest.mark.parametrize("scheme", ("CVI", "DVI"))
    def test_predicate_only_columns_are_probed(self, scheme, extracted):
        dense, matrix = self.shard(scheme)
        result = scan_shards(iter([(matrix, 0)]), where="c0 >= 1 and c1 != 0.5", columns=[3])
        expected = (dense[:, 0] >= 1) & (dense[:, 1] != 0.5)
        np.testing.assert_array_equal(result.rows, dense[expected][:, [3]])
        assert extracted == [(scheme, [3])]

    @pytest.mark.parametrize("scheme", ("CVI", "DVI"))
    def test_aggregate_only_columns_are_probed(self, scheme, extracted):
        dense, matrix = self.shard(scheme)
        result = scan_shards(iter([(matrix, 0)]), where="c0 >= 1", agg="count,sum:c5,max:c6")
        kept = dense[:, 0] >= 1
        assert result.aggregates == {
            "count": int(kept.sum()),
            "sum(c5)": dense[kept, 5].sum(),
            "max(c6)": dense[kept, 6].max(),
        }
        assert extracted == []

    def test_toc_takes_every_column_in_one_call(self, extracted):
        dense, matrix = self.shard("TOC")
        scan_shards(iter([(matrix, 0)]), where="c0 >= 1 and c4 < 2.5", columns=[2, 1])
        scan_shards(iter([(matrix, 0)]), where="c0 >= 1", agg="sum:c5,min:c6")
        assert extracted == [("TOC", [0, 1, 2, 4]), ("TOC", [0, 5, 6])]


class TestScanShards:
    """Multi-shard streams: mixed schemes, limits, aggregates, empties."""

    def _stream(self, dense, schemes, batch):
        shards = []
        for index, start in enumerate(range(0, dense.shape[0], batch)):
            scheme = schemes[index % len(schemes)]
            shards.append(
                (get_scheme(scheme).compress(dense[start : start + batch]), start)
            )
        return shards

    def test_mixed_scheme_manifest_matches_dense(self):
        rng = np.random.default_rng(9)
        dense = quantised(rng, rows=120)
        shards = self._stream(dense, ALL_SCHEMES, batch=15)
        for pushdown in (True, False):
            result = scan_shards(iter(shards), where="c0 == 0.5 or c3 > 1", pushdown=pushdown)
            mask = (dense[:, 0] == 0.5) | (dense[:, 3] > 1)
            np.testing.assert_array_equal(result.rows, dense[mask])
            np.testing.assert_array_equal(result.row_ids, np.flatnonzero(mask))
            assert result.n_rows_scanned == 120
            assert result.n_rows_matched == int(mask.sum())
            assert result.shards_scanned == 8
        assert set(result.schemes) <= set(ALL_SCHEMES)

    def test_random_predicates_over_mixed_shards(self):
        rng = np.random.default_rng(13)
        for _ in range(6):
            dense = quantised(rng, rows=90)
            shards = self._stream(dense, ("DVI", "TOC", "CSR"), batch=30)
            predicate = random_predicate(rng, dense.shape[1])
            expected = predicate.evaluate(_EvalDense(dense))
            result = scan_shards(iter(shards), where=predicate)
            np.testing.assert_array_equal(result.rows, dense[expected])

    def test_aggregates_match_numpy(self):
        rng = np.random.default_rng(21)
        dense = quantised(rng, rows=100)
        shards = self._stream(dense, ("DVI", "CVI", "DEN", "TOC"), batch=25)
        mask = dense[:, 1] >= 0.5
        kept = dense[mask]
        result = scan_shards(
            iter(shards), where="c1 >= 0.5", agg="count,sum:c2,mean:c2,min:c0,max:c3"
        )
        assert result.is_aggregate
        assert result.aggregates["count"] == int(mask.sum())
        assert np.isclose(result.aggregates["sum(c2)"], kept[:, 2].sum())
        assert np.isclose(result.aggregates["mean(c2)"], kept[:, 2].mean())
        assert result.aggregates["min(c0)"] == kept[:, 0].min()
        assert result.aggregates["max(c3)"] == kept[:, 3].max()

    def test_aggregates_over_no_rows(self):
        rng = np.random.default_rng(22)
        shards = self._stream(quantised(rng, rows=40), ("CVI", "DVI"), batch=20)
        result = scan_shards(iter(shards), where="c0 > 99", agg="count,mean:c1,min:c1")
        assert result.aggregates["count"] == 0
        assert result.aggregates["mean(c1)"] is None
        assert result.aggregates["min(c1)"] is None

    def test_limit_early_exit_skips_remaining_shards(self):
        rng = np.random.default_rng(23)
        dense = quantised(rng, rows=100)
        shards = self._stream(dense, ("DVI",), batch=20)
        consumed = []

        def counting_stream():
            for shard in shards:
                consumed.append(shard[1])
                yield shard

        result = scan_shards(counting_stream(), limit=10)
        assert result.rows.shape == (10, dense.shape[1])
        assert result.n_rows_matched == 10
        assert len(consumed) == 1  # one 20-row shard already filled the limit

    def test_limit_zero_rejected_and_empty_match(self):
        rng = np.random.default_rng(24)
        dense = quantised(rng, rows=30)
        shards = self._stream(dense, ("CVI",), batch=30)
        # limit=0 would silently return nothing where "no limit" was meant;
        # it is a caller bug and must fail loudly.
        with pytest.raises(ValueError, match="at least 1"):
            scan_shards(iter(shards), limit=0)
        empty = scan_shards(iter(shards), where="c0 > 99")
        assert empty.rows.shape == (0, dense.shape[1])
        assert empty.row_ids.size == 0
        assert empty.selectivity == 0.0

    def test_agg_excludes_columns_and_limit(self):
        with pytest.raises(ValueError, match="not both"):
            scan_shards(iter([]), columns=[0], agg="count")
        with pytest.raises(ValueError, match="selections"):
            scan_shards(iter([]), agg="count", limit=5)
        with pytest.raises(ValueError, match="at least 1"):
            scan_shards(iter([]), limit=-1)


class TestPushdownPerScheme:
    """Each scheme's matrix class says how a scan reads it, and reads its own columns."""

    def test_which_schemes_push_down(self):
        dense = quantised(np.random.default_rng(4))
        for scheme in available_schemes(include_ablations=True):
            matrix = get_scheme(scheme).compress(dense)
            value_indexed = scheme in ("CVI", "DVI")
            # TOC_SPARSE is CSR's layout, read as CSR is: decoded once.
            on_the_tree = scheme in ("TOC", "TOC_SPARSE_AND_LOGICAL")
            assert matrix.scan_pushdown == (value_indexed or on_the_tree), scheme
            assert matrix.dictionary_probe == value_indexed, scheme
            pushed = scan_shards([(matrix, 0)], where="c0 == 0.5").pushdown_shards == 1
            assert pushed == matrix.scan_pushdown, scheme
            fallback = scan_shards([(matrix, 0)], where="c0 == 0.5", pushdown=False)
            assert fallback.pushdown_shards == 0, scheme

    @pytest.mark.parametrize("scheme", ("CVI", "DVI", "TOC"))
    def test_columns_are_the_dense_columns_in_any_order(self, scheme):
        dense = quantised(np.random.default_rng(10))
        dense[3] = 0.0  # a row with nothing stored
        matrix = get_scheme(scheme).compress(dense)
        for cols in ([3, 0, 3], [6], []):
            np.testing.assert_array_equal(matrix.columns(cols), dense[:, cols])

    @pytest.mark.parametrize("scheme", ("CVI", "DVI"))
    def test_dictionary_probes_are_the_dense_answers(self, scheme):
        dense = quantised(np.random.default_rng(11))
        dense[3] = 0.0
        matrix = get_scheme(scheme).compress(dense)
        mask = dense[:, 0] > 0.5
        for op, test in COMPARE_OPS.items():
            for value in (0.0, 0.5, 0.7):
                np.testing.assert_array_equal(
                    matrix.compare(2, test, value), test(dense[:, 2], value), err_msg=op
                )
        for kept in (None, mask, np.zeros(dense.shape[0], dtype=bool)):
            column = dense[:, 2] if kept is None else dense[kept, 2]
            expected = (
                (column.size, column.sum(), column.min(), column.max()) if column.size else None
            )
            assert matrix.column_stats(2, kept) == expected

    def test_toc_selections_and_aggregates_push_down(self):
        rng = np.random.default_rng(8)
        matrix = get_scheme("TOC").compress(quantised(rng))
        selection = scan_shards(iter([(matrix, 0)]), where="c0 == 0.5")
        projection = scan_shards(iter([(matrix, 0)]), where="c0 == 0.5", columns=[0, 3])
        aggregate = scan_shards(iter([(matrix, 0)]), where="c0 == 0.5", agg="count")
        for result in (selection, projection, aggregate):
            assert (result.pushdown_shards, result.fallback_shards) == (1, 0)
