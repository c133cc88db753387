"""Tests pinned to the running example of Figure 3 and Tables 2/4 of the paper."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.decode_tree import build_decode_tree
from repro.core.logical import prefix_tree_encode
from repro.core.sparse import sparse_decode, sparse_encode
from repro.core.toc import TOCMatrix
from tests.core.test_decode_tree import node_order_tree
from tests.core.test_logical import reference_encode


@pytest.fixture()
def paper_matrix() -> np.ndarray:
    """The 4x4 original table A of Figure 3."""
    return np.array(
        [
            [1.1, 2.0, 3.0, 1.4],
            [1.1, 2.0, 3.0, 0.0],
            [0.0, 1.1, 3.0, 1.4],
            [1.1, 2.0, 0.0, 0.0],
        ]
    )


class TestSparseEncoding:
    def test_pairs_match_figure_3(self, paper_matrix):
        table = sparse_encode(paper_matrix)
        # R1 -> [1:1.1, 2:2, 3:3, 4:1.4] using 1-based columns in the paper;
        # we use 0-based columns internally.
        cols, vals = table.row_pairs(0)
        assert cols.tolist() == [0, 1, 2, 3]
        assert vals.tolist() == [1.1, 2.0, 3.0, 1.4]
        cols, vals = table.row_pairs(3)
        assert cols.tolist() == [0, 1]
        assert vals.tolist() == [1.1, 2.0]

    def test_roundtrip(self, paper_matrix):
        table = sparse_encode(paper_matrix)
        assert np.array_equal(sparse_decode(table), paper_matrix)

    def test_nnz(self, paper_matrix):
        assert sparse_encode(paper_matrix).nnz == 12


class TestLogicalEncoding:
    def test_encoded_table_matches_figure_3(self, paper_matrix):
        """The encoded table D should be [[1,2,3,4],[6,3],[5,8],[6]]."""
        table = sparse_encode(paper_matrix)
        encoding = prefix_tree_encode(table)
        rows = [codes.tolist() for codes in encoding.iter_rows()]
        assert rows == [[1, 2, 3, 4], [6, 3], [5, 8], [6]]

    def test_first_layer_matches_figure_3(self, paper_matrix):
        """I should hold the five unique pairs 1:1.1, 2:2, 3:3, 4:1.4, 2:1.1."""
        table = sparse_encode(paper_matrix)
        encoding = prefix_tree_encode(table)
        pairs = list(
            zip(encoding.first_layer_columns.tolist(), encoding.first_layer_values.tolist())
        )
        assert pairs == [(0, 1.1), (1, 2.0), (2, 3.0), (3, 1.4), (1, 1.1)]

    def test_tree_sequences_match_table_2(self, paper_matrix):
        """Nodes 6..10 represent the sequences listed in Table 2."""
        table = sparse_encode(paper_matrix)
        _, tree = reference_encode(table)
        assert tree.sequence(6) == [(0, 1.1), (1, 2.0)]
        assert tree.sequence(7) == [(1, 2.0), (2, 3.0)]
        assert tree.sequence(8) == [(2, 3.0), (3, 1.4)]
        assert tree.sequence(9) == [(0, 1.1), (1, 2.0), (2, 3.0)]
        assert tree.sequence(10) == [(1, 1.1), (2, 3.0)]
        assert len(tree) == 11  # root + 10 nodes


class TestDecodeTree:
    """Table 4 is ``C'`` in creation order; the built tree stores it level-major.

    Node 9 (depth 3) is the only node out of place: it follows node 10
    (depth 2), so positions 9 and 10 hold nodes 10 and 9.
    """

    POSITIONS = [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 9]

    def test_parent_indexes_match_table_4(self, paper_matrix):
        encoding = prefix_tree_encode(sparse_encode(paper_matrix))
        assert node_order_tree(encoding).parents.tolist() == [0, 0, 0, 0, 0, 0, 1, 2, 3, 6, 5]
        assert build_decode_tree(encoding).parents.tolist() == [0, 0, 0, 0, 0, 0, 1, 2, 3, 5, 6]

    def test_keys_match_table_4(self, paper_matrix):
        encoding = prefix_tree_encode(sparse_encode(paper_matrix))
        table_4 = [
            (0, 0.0),  # the root
            (0, 1.1),
            (1, 2.0),
            (2, 3.0),
            (3, 1.4),
            (1, 1.1),
            (1, 2.0),
            (2, 3.0),
            (3, 1.4),
            (2, 3.0),
            (2, 3.0),
        ]
        oracle = node_order_tree(encoding)
        assert list(zip(oracle.key_columns.tolist(), oracle.key_values.tolist())) == table_4
        ctree = build_decode_tree(encoding)
        keys = list(zip(ctree.key_columns.tolist(), ctree.key_values.tolist()))
        assert keys == [table_4[node] for node in self.POSITIONS]

    def test_sequences_match_encoding_tree(self, paper_matrix):
        table = sparse_encode(paper_matrix)
        encoding = prefix_tree_encode(table)
        _, enc_tree = reference_encode(table)
        ctree = build_decode_tree(encoding)
        for position, node in enumerate(self.POSITIONS):
            cols, vals = ctree.sequence(position)
            assert list(zip(cols, vals)) == enc_tree.sequence(node)


class TestTOCMatrixOnPaperExample:
    def test_lossless_roundtrip(self, paper_matrix):
        toc = TOCMatrix.encode(paper_matrix)
        assert np.array_equal(toc.to_dense(), paper_matrix)

    def test_serialisation_roundtrip(self, paper_matrix):
        toc = TOCMatrix.encode(paper_matrix)
        restored = TOCMatrix.from_bytes(toc.to_bytes())
        assert np.array_equal(restored.to_dense(), paper_matrix)

    def test_matvec(self, paper_matrix):
        toc = TOCMatrix.encode(paper_matrix)
        v = np.array([1.0, -2.0, 0.5, 3.0])
        np.testing.assert_allclose(toc.matvec(v), paper_matrix @ v)

    def test_rmatvec(self, paper_matrix):
        toc = TOCMatrix.encode(paper_matrix)
        v = np.array([0.5, -1.0, 2.0, 4.0])
        np.testing.assert_allclose(toc.rmatvec(v), v @ paper_matrix)

    def test_matmat(self, paper_matrix):
        toc = TOCMatrix.encode(paper_matrix)
        m = np.arange(8, dtype=np.float64).reshape(4, 2)
        np.testing.assert_allclose(toc.matmat(m), paper_matrix @ m)

    def test_rmatmat(self, paper_matrix):
        toc = TOCMatrix.encode(paper_matrix)
        m = np.arange(12, dtype=np.float64).reshape(3, 4)
        np.testing.assert_allclose(toc.rmatmat(m), m @ paper_matrix)

    def test_scale(self, paper_matrix):
        toc = TOCMatrix.encode(paper_matrix)
        np.testing.assert_allclose(toc.scale(2.5).to_dense(), paper_matrix * 2.5)

    def test_add_scalar(self, paper_matrix):
        toc = TOCMatrix.encode(paper_matrix)
        np.testing.assert_allclose(toc.add_scalar(3.0), paper_matrix + 3.0)
