"""Parsing, path bases, rewriting and admissibility checks."""

import pytest

from tautilt import AlgebraError, parse_algebra
from tautilt.modules import projective

from conftest import A3_REL_TEXT, LOOP_TEXT


def test_a3_rel_basis(a3_rel):
    assert a3_rel.dimension == 5
    names = {a3_rel.path_str(p) for p in a3_rel.path_basis}
    assert names == {"e1", "e2", "e3", "a", "b"}


def test_one_vertex():
    q = parse_algebra("vertices 1")
    assert q.dimension == 1
    assert [q.path_str(p) for p in q.path_basis] == ["e1"]


def test_loop_dimension(loop_algebra):
    assert loop_algebra.dimension == 4
    assert projective(loop_algebra, 2).dims == (0, 2)


def test_projective_dimension_sum(corpus):
    # the projectives partition the basis paths by their end vertex
    for q in corpus.values():
        total = [0] * q.n
        for i in range(1, q.n + 1):
            p = projective(q, i)
            for v in range(q.n):
                total[v] += p.dims[v]
        by_target = [sum(1 for path in q.path_basis if q.path_target(path) == v + 1)
                     for v in range(q.n)]
        assert total == by_target
        assert sum(total) == q.dimension


def test_roundtrip_text(corpus):
    for q in corpus.values():
        q2 = parse_algebra(q.to_text())
        assert q2.n == q.n
        assert q2.dimension == q.dimension
        assert [a.name for a in q2.arrows] == [a.name for a in q.arrows]
        assert sorted(map(str, q2.path_basis)) == sorted(map(str, q.path_basis))


def test_comments_and_coefficients():
    q = parse_algebra("""
# a commutativity relation with rational coefficients
vertices 3
arrow a: 1 -> 2
arrow b: 2 -> 3
arrow c: 1 -> 2
relation 1 a*b + -1/2 c*b
""")
    # the lex-larger parallel path c*b rewrites to 2 a*b; one length-2 path survives
    assert q.dimension == 7
    strs = {q.path_str(p) for p in q.path_basis}
    assert "a*b" in strs and "c*b" not in strs


def test_non_admissible_rejected():
    with pytest.raises(AlgebraError):
        parse_algebra("vertices 1\narrow a: 1 -> 1")  # free loop


def test_non_nilpotent_arrow_ideal_rejected():
    # x*x = x*x*x leaves a 3-dimensional quotient in which no power of x vanishes
    with pytest.raises(AlgebraError) as exc:
        parse_algebra("vertices 1\narrow x: 1 -> 1\nrelation x*x - x*x*x")
    assert "not admissible" in str(exc.value)
    # the nilpotent truncation of the same loop still parses
    assert parse_algebra("vertices 1\narrow x: 1 -> 1\nrelation x*x*x").dimension == 3


def test_relation_arrow_rejected():
    with pytest.raises(AlgebraError):
        parse_algebra("vertices 2\narrow a: 1 -> 2\nrelation a")


def test_non_parallel_relation_rejected():
    with pytest.raises(AlgebraError):
        parse_algebra("""
vertices 3
arrow a: 1 -> 2
arrow b: 2 -> 3
arrow c: 2 -> 2
relation a*b + c*c
""")


def test_unknown_arrow_rejected():
    with pytest.raises(AlgebraError) as exc:
        parse_algebra("vertices 2\narrow a: 1 -> 2\nrelation a*z")
    assert "line 3" in str(exc.value)


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(AlgebraError) as exc:
        parse_algebra("vertices 2\narrow a 1 -> 2")
    assert "line 2" in str(exc.value)
    with pytest.raises(AlgebraError):
        parse_algebra("arrow a: 1 -> 2")  # missing vertices


def test_normal_form_multiplication(a3_rel):
    p = (1, ("a",))
    qq = (2, ("b",))
    prod = a3_rel.compose(p, qq)
    assert prod == {}  # the relation kills a*b
    e1 = a3_rel.trivial_path(1)
    assert a3_rel.compose(e1, p) == {p: 1}


def test_fingerprint_stability(a3_rel):
    assert a3_rel.fingerprint() == parse_algebra(A3_REL_TEXT).fingerprint()
    assert a3_rel.fingerprint() != parse_algebra(LOOP_TEXT).fingerprint()
