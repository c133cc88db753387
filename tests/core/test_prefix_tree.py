"""Tests for the encoding prefix tree (Section 3.1.1 APIs)."""

from __future__ import annotations

import pytest

from repro.core.prefix_tree import NOT_FOUND, ROOT_INDEX, PrefixTree
from repro.core.sparse import sparse_encode
from tests.core.test_logical import reference_encode


class TestPrefixTreeBasics:
    def test_new_tree_has_only_root(self):
        tree = PrefixTree()
        assert len(tree) == 1

    def test_add_node_returns_sequential_indexes(self):
        tree = PrefixTree()
        assert tree.add_node(ROOT_INDEX, (0, 1.0)) == 1
        assert tree.add_node(ROOT_INDEX, (1, 2.0)) == 2
        assert tree.add_node(1, (1, 2.0)) == 3

    def test_get_index_finds_children(self):
        tree = PrefixTree()
        idx = tree.add_node(ROOT_INDEX, (0, 1.0))
        assert tree.get_index(ROOT_INDEX, (0, 1.0)) == idx

    def test_get_index_missing_returns_not_found(self):
        tree = PrefixTree()
        assert tree.get_index(ROOT_INDEX, (0, 1.0)) == NOT_FOUND

    def test_get_index_scoped_to_parent(self):
        tree = PrefixTree()
        a = tree.add_node(ROOT_INDEX, (0, 1.0))
        tree.add_node(a, (1, 2.0))
        # (1, 2.0) exists under node a but not under the root.
        assert tree.get_index(ROOT_INDEX, (1, 2.0)) == NOT_FOUND
        assert tree.get_index(a, (1, 2.0)) == 2

    def test_key_of_root_raises(self):
        tree = PrefixTree()
        with pytest.raises(ValueError):
            tree.key(ROOT_INDEX)

    def test_key_and_parent(self):
        tree = PrefixTree()
        a = tree.add_node(ROOT_INDEX, (3, 1.5))
        b = tree.add_node(a, (4, 2.5))
        assert tree.key(b) == (4, 2.5)
        assert tree.parent(b) == a
        assert tree.parent(a) == ROOT_INDEX


class TestPrefixTreeSequences:
    def test_sequence_concatenates_keys_from_root(self):
        tree = PrefixTree()
        a = tree.add_node(ROOT_INDEX, (0, 1.0))
        b = tree.add_node(a, (1, 2.0))
        c = tree.add_node(b, (2, 3.0))
        assert tree.sequence(c) == [(0, 1.0), (1, 2.0), (2, 3.0)]

    def test_depth(self):
        tree = PrefixTree()
        a = tree.add_node(ROOT_INDEX, (0, 1.0))
        b = tree.add_node(a, (1, 2.0))
        assert tree.depth(ROOT_INDEX) == 0
        assert tree.depth(a) == 1
        assert tree.depth(b) == 2

    def test_first_layer_returns_root_children_in_index_order(self):
        tree = PrefixTree()
        tree.add_node(ROOT_INDEX, (0, 1.0))
        tree.add_node(ROOT_INDEX, (1, 2.0))
        tree.add_node(1, (1, 2.0))  # deeper node must not appear
        assert tree.first_layer() == [(0, 1.0), (1, 2.0)]

    def test_integer_float_key_normalisation(self):
        tree = PrefixTree()
        idx = tree.add_node(ROOT_INDEX, (0, 2))
        # Looking up with an equal float value must find the same node.
        assert tree.get_index(ROOT_INDEX, (0, 2.0)) == idx

    def test_keys_are_value_bits(self):
        tree = PrefixTree()
        nan = tree.add_node(ROOT_INDEX, (0, float("nan")))
        zero = tree.add_node(ROOT_INDEX, (0, 0.0))
        assert tree.get_index(ROOT_INDEX, (0, float("nan"))) == nan
        assert tree.get_index(ROOT_INDEX, (0, 0.0)) == zero
        assert tree.get_index(ROOT_INDEX, (0, -0.0)) == NOT_FOUND

    def test_add_node_needs_an_existing_parent(self):
        tree = PrefixTree()
        with pytest.raises(IndexError):
            tree.add_node(1, (0, 1.0))


class TestPaperExampleTree:
    """The tree textbook Algorithm 1 builds for Figure 3, through the paper's APIs."""

    @pytest.fixture()
    def tree(self, paper_matrix) -> PrefixTree:
        return reference_encode(sparse_encode(paper_matrix))[1]

    def test_answers_get_index_at_every_depth(self, tree):
        assert tree.get_index(ROOT_INDEX, (1, 1.1)) == 5
        assert tree.get_index(1, (1, 2.0)) == 6
        assert tree.get_index(6, (2, 3.0)) == 9
        assert tree.get_index(6, (3, 1.4)) == NOT_FOUND
        assert tree.get_index(ROOT_INDEX, (0, 9.9)) == NOT_FOUND

    def test_grows_under_any_node(self, tree):
        assert tree.add_node(9, (3, 1.4)) == 11
        assert tree.sequence(11) == [(0, 1.1), (1, 2.0), (2, 3.0), (3, 1.4)]
        assert tree.add_node(ROOT_INDEX, (0, 9.9)) == 12
        assert tree.first_layer()[-1] == (1, 1.1)  # a late root child is not in I

    def test_keys_are_plain_python_numbers(self, tree):
        col, val = tree.key(1)
        assert type(col) is int and type(val) is float
