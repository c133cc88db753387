"""The level-major kernels against the per-level recurrences they replaced, and against dense.

``reference_*`` below are the four TOC multiplication kernels as they ran
on ``C'`` in creation order (Algorithm 2's node-order tree,
:func:`~tests.core.test_decode_tree.node_order_tree`): the nodes grouped by
depth with a stable sort, each level a fancy-index gather and write
(``A @ v``, ``A @ M``) or an ``np.add.at`` scatter (``v @ A``, ``M @ A``).
They are the oracle the way ``reference_encode`` in ``test_logical.py`` is
Algorithm 1's: the shipped
``A @ v`` must be *bit*-equal to :func:`reference_matvec` (served score
vectors were computed by it), and every kernel must agree with dense
products on the decoded matrix, NaN and ±inf cells included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import ops
from repro.core.decode_tree import build_decode_tree
from repro.core.logical import LogicalEncoding, prefix_tree_encode
from repro.core.sparse import sparse_encode
from repro.core.toc import TOCMatrix
from tests.core.oracles import sparse_decode
from tests.core.test_decode_tree import NodeOrderTree, node_order_tree

# NaN and ±inf cells make NumPy warn about invalid operations, on both sides.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

#: Repeats make deep trees; NaN and ±inf must propagate exactly as in dense.
CELLS = st.sampled_from(
    [0.0, 0.0, 0.0, 1.0, 2.5, -1.5, 4.0, float("nan"), float("inf"), float("-inf")]
)
MATRICES = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=14),
    elements=CELLS,
)


# -- the oracle ------------------------------------------------------------------


def _levels(tree: NodeOrderTree) -> list[np.ndarray]:
    """Node ids of each depth 1..max, in creation order."""
    depths = tree.depths[1:]
    order = np.argsort(depths, kind="stable") + 1
    ends = np.cumsum(np.bincount(depths, minlength=1))
    return [order[ends[d - 1] : ends[d]] for d in range(1, ends.size)]


def _row_segments(encoding: LogicalEncoding) -> tuple[np.ndarray, np.ndarray]:
    lengths = np.diff(encoding.row_offsets)
    nonempty = lengths > 0
    return nonempty, encoding.row_offsets[:-1][nonempty]


def reference_matvec(encoding: LogicalEncoding, tree: NodeOrderTree, v: np.ndarray) -> np.ndarray:
    keys_dot_v = np.zeros(len(tree))
    keys_dot_v[1:] = tree.key_values[1:] * v[tree.key_columns[1:]]
    h = np.zeros(len(tree))
    for nodes in _levels(tree):
        h[nodes] = keys_dot_v[nodes] + h[tree.parents[nodes]]
    result = np.zeros(encoding.n_rows)
    nonempty, starts = _row_segments(encoding)
    if starts.size:
        result[nonempty] = np.add.reduceat(h[encoding.codes], starts)
    return result


def reference_matmat(encoding: LogicalEncoding, tree: NodeOrderTree, m: np.ndarray) -> np.ndarray:
    keys_dot_m = np.zeros((len(tree), m.shape[1]))
    keys_dot_m[1:] = tree.key_values[1:, None] * m[tree.key_columns[1:]]
    h = np.zeros_like(keys_dot_m)
    for nodes in _levels(tree):
        h[nodes] = keys_dot_m[nodes] + h[tree.parents[nodes]]
    result = np.zeros((encoding.n_rows, m.shape[1]))
    nonempty, starts = _row_segments(encoding)
    if starts.size:
        result[nonempty] = np.add.reduceat(h[encoding.codes], starts, axis=0)
    return result


def _code_rows(encoding: LogicalEncoding) -> np.ndarray:
    return np.repeat(np.arange(encoding.n_rows), np.diff(encoding.row_offsets))


def reference_rmatvec(encoding: LogicalEncoding, tree: NodeOrderTree, v: np.ndarray) -> np.ndarray:
    h = np.bincount(encoding.codes, weights=v[_code_rows(encoding)], minlength=len(tree))
    result = np.zeros(encoding.n_cols)
    for nodes in reversed(_levels(tree)):
        np.add.at(result, tree.key_columns[nodes], tree.key_values[nodes] * h[nodes])
        np.add.at(h, tree.parents[nodes], h[nodes])
    return result


def reference_rmatmat(encoding: LogicalEncoding, tree: NodeOrderTree, m: np.ndarray) -> np.ndarray:
    h = np.zeros((len(tree), m.shape[0]))
    np.add.at(h, encoding.codes, m[:, _code_rows(encoding)].T)
    result_t = np.zeros((encoding.n_cols, m.shape[0]))
    for nodes in reversed(_levels(tree)):
        np.add.at(result_t, tree.key_columns[nodes], tree.key_values[nodes, None] * h[nodes])
        np.add.at(h, tree.parents[nodes], h[nodes])
    return result_t.T


def dense_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` one IEEE product per term: BLAS may skip a zero operand, turning 0·NaN into 0."""
    return (a[:, :, None] * b[None, :, :]).sum(axis=1)


# -- helpers ---------------------------------------------------------------------


def _encode(dense: np.ndarray) -> LogicalEncoding:
    encoding = prefix_tree_encode(sparse_encode(dense))
    return encoding


def _operands(dense: np.ndarray, seed: int, width: int = 3):
    """``(v, u, M, L)`` for ``A @ v``, ``u @ A``, ``A @ M`` and ``L @ A``: finite and non-zero.

    A left product sums each node's row weights *before* multiplying by its
    key, as Algorithm 5 does: ``inf * (a - b)`` is ±inf where the dense
    ``inf * a - inf * b`` is NaN.  So when a cell is infinite the left
    operands are positive, where both orders agree; the right products
    multiply first and agree with dense for any signs.
    """
    rng = np.random.default_rng(seed)

    def draw(*size, signed=True):
        values = rng.uniform(0.5, 2.0, size=size)
        return values * rng.choice([-1.0, 1.0], size=size) if signed else values

    rows, cols = dense.shape
    signed = not np.isinf(dense).any()
    return (
        draw(cols),
        draw(rows, signed=signed),
        draw(cols, width),
        draw(width, rows, signed=signed),
    )


def _assert_bits_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype == np.float64
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


def _assert_all_kernels(dense: np.ndarray, seed: int = 0) -> None:
    encoding = _encode(dense)
    tree, oracle = build_decode_tree(encoding), node_order_tree(encoding)
    v, u, m, left = _operands(dense, seed)
    close = {"rtol": 1e-9, "atol": 1e-9, "equal_nan": True}

    matvec = ops.matrix_times_vector(tree, v)
    _assert_bits_equal(matvec, reference_matvec(encoding, oracle, v))
    np.testing.assert_allclose(matvec, dense_product(dense, v[:, None])[:, 0], **close)
    products = [
        (ops.vector_times_matrix(tree, u), dense_product(u[None, :], dense)[0]),
        (ops.matrix_times_matrix(tree, m), dense_product(dense, m)),
        (ops.uncompressed_matrix_times_matrix(tree, left), dense_product(left, dense)),
    ]
    for actual, expected in products:
        assert actual.dtype == np.float64
        np.testing.assert_allclose(actual, expected, **close)
    _assert_bits_equal(ops.matrix_columns(tree, range(dense.shape[1])), dense)


# -- the properties --------------------------------------------------------------


class TestAgainstOracleAndDense:
    @given(dense=MATRICES, seed=st.integers(0, 2**16))
    @example(dense=np.zeros((4, 3)), seed=0)  # an all-zero batch: only the root
    @example(dense=np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 0.0]]), seed=1)  # an empty row
    @example(dense=np.array([[2.0], [0.0], [2.0], [-1.5]]), seed=2)  # a single column
    @example(dense=np.array([[np.nan, 1.0, 0.0], [np.inf, 0.0, -np.inf]]), seed=3)
    @example(dense=np.tile([1.0, 2.5, -1.5, 4.0, 1.0, 2.5], (9, 1)), seed=4)  # a deep chain
    @settings(max_examples=150, deadline=None)
    def test_every_kernel(self, dense, seed):
        _assert_all_kernels(dense, seed)

    def test_rows_of_nothing_but_nan_and_inf(self):
        dense = np.array([[np.nan, np.nan], [np.inf, np.inf], [np.inf, -np.inf], [0.0, np.nan]])
        _assert_all_kernels(dense)

    def test_depth_past_the_one_byte_sort_key(self):
        # Identical rows lengthen the longest stored sequence by one pair per row.
        dense = np.ones((260, 260))
        assert build_decode_tree(_encode(dense)).max_depth > 255
        _assert_all_kernels(dense)


class TestColumnsAndDenseDecode:
    """Column extraction and the dense decode, bit for bit against the decoded matrix."""

    @given(dense=MATRICES, picks=st.lists(st.integers(0, 2**8), max_size=6))
    @example(dense=np.array([[np.nan, 1.0, 0.0], [0.0, 0.0, 0.0], [np.inf, 0.0, -np.inf]]),
             picks=[1])  # NaN/±inf only in the other columns, and an empty row
    @example(dense=np.array([[np.nan, 1.0, np.inf], [-np.inf, 0.0, 2.5]]),
             picks=[2, 0, 2])  # NaN/±inf in the requested columns, unsorted and repeated
    @example(dense=np.ones((3, 2)), picks=[])
    @settings(max_examples=150, deadline=None)
    def test_columns_are_the_decoded_columns(self, dense, picks):
        toc = TOCMatrix.encode(dense)
        cols = [pick % dense.shape[1] for pick in picks]
        _assert_bits_equal(toc.columns(cols), toc.to_dense()[:, cols])
        if cols:
            _assert_bits_equal(toc.column(cols[0]), dense[:, cols[0]])

    @given(dense=MATRICES)
    @example(dense=np.zeros((4, 3)))  # only the root
    @settings(max_examples=150, deadline=None)
    def test_dense_decode_is_the_sparse_decode(self, dense):
        toc = TOCMatrix.encode(dense)
        _assert_bits_equal(toc.to_dense(), sparse_decode(toc.to_sparse()))
        _assert_bits_equal(toc.to_dense(), dense)

    @pytest.mark.parametrize("cols", [[3], [-1], [0, 3]])
    def test_a_column_out_of_range_raises(self, cols):
        with pytest.raises(IndexError, match="column"):
            TOCMatrix.encode(np.ones((2, 3))).columns(cols)


class TestPastTheTwoByteSortKey:
    """A chain deeper than 65 535 levels, which only a hand-written code stream reaches.

    One row referencing the node created just before each code (the LZW
    corner case) makes node ``k + 1`` the child of node ``k``.  Every key
    repeats column 0, so there is no dense twin; the oracle is the only
    check, and it is exact for ``A @ v``.  ``M @ A`` walks the same layout
    with a sparse product per level (65 536 of them here, seconds to build),
    so it is checked past the one-byte key above instead.
    """

    DEPTH = 65_537

    @pytest.fixture(scope="class")
    def chain(self):
        encoding = LogicalEncoding(
            first_layer_columns=np.array([0]),
            first_layer_values=np.array([1.5]),
            codes=np.arange(1, self.DEPTH + 1),
            row_offsets=np.array([0, self.DEPTH]),
            shape=(1, 1),
        )
        tree = build_decode_tree(encoding)
        assert tree.max_depth == self.DEPTH
        return encoding, tree, node_order_tree(encoding)

    def test_right_multiplications(self, chain):
        encoding, tree, oracle = chain
        v, m = np.array([-0.75]), np.array([[0.5, -2.0]])
        _assert_bits_equal(ops.matrix_times_vector(tree, v), reference_matvec(encoding, oracle, v))
        np.testing.assert_allclose(
            ops.matrix_times_matrix(tree, m), reference_matmat(encoding, oracle, m)
        )

    def test_left_multiplication(self, chain):
        encoding, tree, oracle = chain
        u = np.array([1.25])
        np.testing.assert_allclose(
            ops.vector_times_matrix(tree, u), reference_rmatvec(encoding, oracle, u)
        )


def test_the_oracle_is_the_textbook_on_the_census_batch(census_batch):
    """The reference recurrences themselves agree with dense on a real batch."""
    encoding = _encode(census_batch)
    tree = node_order_tree(encoding)
    v, u, m, left = _operands(census_batch, 7, width=4)
    np.testing.assert_allclose(reference_matvec(encoding, tree, v), census_batch @ v)
    np.testing.assert_allclose(reference_rmatvec(encoding, tree, u), u @ census_batch)
    np.testing.assert_allclose(reference_matmat(encoding, tree, m), census_batch @ m)
    np.testing.assert_allclose(reference_rmatmat(encoding, tree, left), left @ census_batch)
