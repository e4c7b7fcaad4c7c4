"""Chambers, walls, DOT / fan JSON / SVG emission."""

import json
import re

import pytest

from tautilt import wallchamber
from tautilt.modules import projective
from tautilt.stability import slate_for_node
from tautilt.tautilting import TheoremViolationError, c_matrix
from tautilt.wallchamber import (
    build_fan,
    chamber_of_pair,
    chamber_tag_direction,
    emit_dot,
    emit_fan_json,
    emit_svg_stereographic,
    shared_wall,
    wall_of_brick,
)

from reference import simple


def node_by_desc(graph, desc):
    for n in graph.nodes:
        if n.descriptor() == desc:
            return n
    raise KeyError(desc)


# ----------------------------------------------------------------------
# chambers and walls
# ----------------------------------------------------------------------

def test_planted_column_swap_breaks_ctg_identity(a3_rel_graph, monkeypatch):
    # C^T G = I is read as <c_i, g_j>; C with two columns permuted fails it
    pair = a3_rel_graph.nodes[0]
    c = c_matrix(pair)
    monkeypatch.setattr(wallchamber, "c_matrix", lambda pair: (c[1], c[0]) + c[2:])
    with pytest.raises(TheoremViolationError, match=r"C\^T G is not the identity"):
        chamber_of_pair(pair)


def test_chamber_golden(a3_rel_graph):
    start = a3_rel_graph.nodes[0]
    ch = chamber_of_pair(start)
    assert ch.generators == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert ch.wall_normals == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    last = node_by_desc(a3_rel_graph, "(0 | P1 P2 P3)")
    ch = chamber_of_pair(last)
    assert ch.generators == ((-1, 0, 0), (0, -1, 0), (0, 0, -1))


def test_chamber_row2(a3_rel_graph):
    row2 = node_by_desc(a3_rel_graph, "((1,1,0) (0,1,1) (0,1,0) | 0)")
    ch = chamber_of_pair(row2)
    assert ch.generators == ((1, 0, 0), (0, 1, 0), (0, 1, -1))
    assert ch.wall_normals == ((1, 0, 0), (0, 1, 1), (0, 0, -1))


def test_chamber_interior_sides(corpus_graphs):
    # theta = sum of generators pairs to +1 against every signed c-column
    # (C^T G = Id with unit weights), hence to the column sign against the
    # positive brick normal
    for graph in corpus_graphs.values():
        n = graph.algebra.n
        for pair in graph.nodes:
            ch = chamber_of_pair(pair)
            theta = [sum(g[i] for g in ch.generators) for i in range(n)]
            for normal in ch.wall_normals:
                assert sum(t * x for t, x in zip(theta, normal)) == 1
                positive = tuple(abs(x) for x in normal)
                sign = 1 if all(x >= 0 for x in normal) else -1
                assert sum(t * x for t, x in zip(theta, positive)) == sign


def test_wall_of_simple_brick(a3_rel):
    wall = wall_of_brick(simple(a3_rel, 2))
    assert wall.normal == (0, 1, 0)
    assert wall.facets == ()


def test_wall_facets_golden(a3_rel):
    # submodule oracle: the unique proper submodule of the length-2 brick
    wall = wall_of_brick(projective(a3_rel, 1))
    assert wall.normal == (1, 1, 0)
    assert wall.facets == ((0, 1, 0),)
    wall = wall_of_brick(projective(a3_rel, 2))
    assert wall.normal == (0, 1, 1)
    assert wall.facets == ((0, 0, 1),)


def test_fan_wall_dedup(a3_rel_graph):
    fan = build_fan(a3_rel_graph)
    assert len(fan.chambers) == 12
    assert sorted(w.normal for w in fan.walls) == \
        [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0)]


def test_fan_point(corpus_graphs):
    fan = build_fan(corpus_graphs["point"])
    assert len(fan.chambers) == 2
    assert len(fan.walls) == 1
    assert fan.walls[0].normal == (1,)


def test_a2_fan_counts(corpus_graphs):
    fan = build_fan(corpus_graphs["a2"])
    assert len(fan.chambers) == 5


def test_wall_normals_match_slot_bricks(a3_rel_graph):
    # every chamber wall normal is +- the dimension vector of the slot brick
    graph = a3_rel_graph
    for idx, pair in enumerate(graph.nodes):
        ch = chamber_of_pair(pair)
        slate = slate_for_node(graph, idx)
        for r, normal in enumerate(ch.wall_normals):
            dims = slate.bricks[r].dims
            assert normal == dims or normal == tuple(-x for x in dims)


# ----------------------------------------------------------------------
# shared walls
# ----------------------------------------------------------------------

def test_shared_wall_start_edges(a3_rel_graph):
    start = a3_rel_graph.nodes[0]
    labels = set()
    for e in a3_rel_graph.edges:
        if e.src == 0:
            c_vec, brick = shared_wall(start, a3_rel_graph.nodes[e.dst],
                                       a3_rel_graph)
            assert c_vec == brick.dims
            labels.add(c_vec)
    assert labels == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_shared_wall_into_sink(a3_rel_graph):
    src = node_by_desc(a3_rel_graph, "((1,0,0) | P2 P3)")
    dst = node_by_desc(a3_rel_graph, "(0 | P1 P2 P3)")
    c_vec, brick = shared_wall(src, dst, a3_rel_graph)
    assert c_vec == (1, 0, 0) and brick.dims == (1, 0, 0)


def test_shared_wall_point(corpus_graphs):
    graph = corpus_graphs["point"]
    c_vec, brick = shared_wall(graph.nodes[0], graph.nodes[1], graph)
    assert c_vec == (1,)


def test_shared_wall_order_enforced(a3_rel_graph):
    src = a3_rel_graph.nodes[0]
    dst = a3_rel_graph.nodes[a3_rel_graph.edges[0].dst]
    with pytest.raises(ValueError):
        shared_wall(dst, src, a3_rel_graph)


def test_shared_wall_non_adjacent(a3_rel_graph):
    start = a3_rel_graph.nodes[0]
    sink = node_by_desc(a3_rel_graph, "(0 | P1 P2 P3)")
    with pytest.raises(ValueError):
        shared_wall(start, sink, a3_rel_graph)


# ----------------------------------------------------------------------
# DOT
# ----------------------------------------------------------------------

def test_dot_structure(a3_rel_graph):
    dot = emit_dot(a3_rel_graph)
    assert dot.startswith("digraph")
    nodes = re.findall(r"^\s*n(\d+) \[", dot, re.M)
    edges = re.findall(r"n(\d+) -> n(\d+) \[label=\"c=\(([^)]*)\) b=\(([^)]*)\)\"\]", dot)
    assert len(nodes) == 12
    assert len(edges) == 18
    label_set = {e[2] for e in edges}
    assert label_set == {"1,0,0", "0,1,0", "0,0,1", "0,1,1", "1,1,0"}


def test_dot_deterministic(a3_rel_graph):
    assert emit_dot(a3_rel_graph) == emit_dot(a3_rel_graph)


def test_dot_point(corpus_graphs):
    dot = emit_dot(corpus_graphs["point"])
    assert dot.count("->") == 1


# ----------------------------------------------------------------------
# fan JSON
# ----------------------------------------------------------------------

def test_fan_json_schema(a3_rel_graph):
    fan = build_fan(a3_rel_graph)
    payload = json.loads(emit_fan_json(fan))
    assert payload["version"] == 1
    assert payload["reachable_chambers_only"] is True
    assert len(payload["chambers"]) == 12
    assert len(payload["walls"]) == 5
    normals = sorted(tuple(w["normal"]) for w in payload["walls"])
    assert normals == [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0)]
    for w in payload["walls"]:
        assert w["brick_dim"] == w["normal"]
    for ch in payload["chambers"]:
        assert len(ch["generators"]) == 3


# ----------------------------------------------------------------------
# SVG
# ----------------------------------------------------------------------

def test_svg_emission(a3_rel_graph):
    fan = build_fan(a3_rel_graph)
    svg = emit_svg_stereographic(fan)
    assert svg.startswith("<svg")
    assert svg.count("<circle") == 3    # simple-brick walls are full circles
    assert svg.count("<path") == 2      # length-two bricks clip to arcs
    assert emit_svg_stereographic(fan) == svg


def test_svg_rejects_other_ranks(corpus_graphs):
    fan = build_fan(corpus_graphs["a2"])
    with pytest.raises(ValueError):
        emit_svg_stereographic(fan)


def test_svg_single_wall(corpus_graphs):
    fan = build_fan(corpus_graphs["a3"])
    svg = emit_svg_stereographic(fan)
    assert svg.count("<circle") >= 3


def test_svg_one_wall_fixture(a3_rel_graph):
    # a fan holding a single coordinate-hyperplane wall draws one circle
    from tautilt.wallchamber import Chamber, Fan, Wall
    ch = chamber_of_pair(a3_rel_graph.nodes[0])
    fan = Fan("fixture", (ch,), (Wall((1, 0, 0), ()),))
    svg = emit_svg_stereographic(fan)
    assert svg.count("<circle") == 1 and svg.count("<path") == 0


def test_chamber_tag_regions(a3_rel_graph):
    # the tag of the all-projective chamber points into the all-positive
    # octant (towards the projection point); the dual chamber is opposite
    start_tag = chamber_tag_direction(chamber_of_pair(a3_rel_graph.nodes[0]))
    assert all(x > 0 for x in start_tag)
    sink = node_by_desc(a3_rel_graph, "(0 | P1 P2 P3)")
    sink_tag = chamber_tag_direction(chamber_of_pair(sink))
    assert all(x < 0 for x in sink_tag)
