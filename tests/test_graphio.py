import pytest

from dagcover import graphio
from dagcover.digraph import Digraph, Permutation, make_transitive_tournament
from dagcover.errors import InvalidInputError


def test_edge_list_round_trip():
    g = make_transitive_tournament(5)
    assert graphio.parse_edge_list(graphio.format_edge_list(g)) == g


def test_json_round_trip():
    g = Digraph(4, [(0, 1), (1, 0), (2, 3)])
    text = '{"n": 4, "edges": [[0, 1], [1, 0], [2, 3]]}'
    assert graphio.parse_graph_json(text) == g
    assert graphio.parse_graph(text) == g
    assert graphio.parse_graph(graphio.format_edge_list(g)) == g


def test_rejects_self_loop_and_duplicates():
    with pytest.raises(InvalidInputError):
        graphio.parse_edge_list("2 1\n0 0\n")
    with pytest.raises(InvalidInputError):
        graphio.parse_edge_list("3 2\n0 1\n0 1\n")
    with pytest.raises(InvalidInputError):
        graphio.parse_graph_json('{"n": 3, "edges": [[0, 1], [0, 1]]}')
    with pytest.raises(InvalidInputError):
        graphio.parse_graph_json('{"n": 3, "edges": [[1, 1]]}')


def test_rejects_malformed():
    with pytest.raises(InvalidInputError):
        graphio.parse_edge_list("")
    with pytest.raises(InvalidInputError):
        graphio.parse_edge_list("3\n")
    with pytest.raises(InvalidInputError):
        graphio.parse_edge_list("3 2\n0 1\n")  # promised 2 edges, got 1
    with pytest.raises(InvalidInputError):
        graphio.parse_edge_list("3 1\n0 x\n")
    with pytest.raises(InvalidInputError):
        graphio.parse_graph_json("{not json")
    with pytest.raises(InvalidInputError):
        graphio.parse_graph_json('{"edges": []}')


def test_permutations_round_trip():
    perms = [Permutation([2, 0, 1]), Permutation([0, 1, 2])]
    back = graphio.parse_permutations("2 0 1\n# a comment\n\n 0 1 2 \n")  # comments and blank lines skipped
    assert [p.order for p in back] == [p.order for p in perms]
    with pytest.raises(InvalidInputError):
        graphio.parse_permutations("0 1 2\n0 1\n")
    with pytest.raises(InvalidInputError):
        graphio.parse_permutations("0 0 1\n")
