"""Parsing, path bases, rewriting and admissibility checks."""

import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from tautilt import AlgebraError, BoundQuiver, parse_algebra
from tautilt.algebra import Arrow, memo_sizes, memoised
from tautilt.modules import hom_basis, projective
from tautilt.tautilting import TauPair, g_matrix

from conftest import A3_REL_TEXT, LOOP_TEXT, PREPROJ_A3_TEXT

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads"

# the preprojective algebra of A3 as textbooks present it, without the
# critical-pair consequences b*a*c and d*b*a
PREPROJ_A3_TEXTBOOK = """\
vertices 3
arrow a: 1 -> 2
arrow b: 2 -> 1
arrow c: 2 -> 3
arrow d: 3 -> 2
relation a*b
relation d*c
relation b*a + -1 c*d
"""


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


def test_zero_denominator_rejected():
    for coeff in ("1/0", "-3/00"):
        with pytest.raises(AlgebraError) as exc:
            parse_algebra(f"vertices 3\narrow a: 1 -> 2\narrow b: 2 -> 3\n"
                          f"relation {coeff} a*b")
        assert "line 4" in str(exc.value) and "zero denominator" in str(exc.value)


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(AlgebraError) as exc:
        parse_algebra("vertices 2\narrow a 1 -> 2")
    assert "line 2" in str(exc.value)
    with pytest.raises(AlgebraError):
        parse_algebra("arrow a: 1 -> 2")  # missing vertices


@pytest.mark.parametrize("text, message", [
    ("verticesXY 2\n", "line 1: unrecognised directive"),
    ("vertices 2 3\n", "line 1: malformed vertices line"),
    ("vertices\n", "line 1: malformed vertices line"),
    ("vertices 2\narrow a: 1 -> 2\nrelationship a\n", "line 3: unrecognised directive"),
    ("vertices 3\narrow a: 1 -> 2\narrow b: 2 -> 3\nrelationa*b\n",
     "line 4: unrecognised directive"),
    ("vertices 2\narrows a: 1 -> 2\n", "line 2: unrecognised directive"),
], ids=["vertices-prefix", "vertices-extra", "vertices-bare", "relation-prefix",
        "relation-glued", "arrow-prefix"])
def test_directive_is_the_whole_first_token(text, message):
    with pytest.raises(AlgebraError) as exc:
        parse_algebra(text)
    assert str(exc.value) == message


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


def test_non_confluent_presentation_refused():
    with pytest.raises(AlgebraError) as exc:
        parse_algebra(PREPROJ_A3_TEXTBOOK)
    assert "not confluent" in str(exc.value)
    # the same ideal with its critical-pair consequences written out parses
    completed = parse_algebra((WORKLOADS / "preproj_a3.alg").read_text())
    assert completed.dimension == 10


def test_composition_is_associative(corpus):
    # products of three basis paths rewrite at every position
    preproj = parse_algebra(PREPROJ_A3_TEXT)
    for q in [*corpus.values(), preproj]:
        for p, m, r in itertools.product(q.path_basis, repeat=3):
            assert (q.compose_combo(q.compose(p, m), {r: 1})
                    == q.compose_combo({p: 1}, q.compose(m, r)))
    # b*a = c*d in preprojective A3, so (b - c)(a + d) cancels to zero
    a, b, c, d = ((arrow.source, (arrow.name,)) for arrow in preproj.arrows)
    ba = preproj.compose(b, a)
    assert len(ba) == 1 and preproj.compose(c, d) == ba
    assert preproj.compose_combo({b: 1, c: -1}, {a: 1, d: 1}) == {}
    doubled = preproj.compose_combo({b: 1, c: 1}, {a: 1, d: 1})
    assert doubled == {p: 2 * x for p, x in ba.items()}


# a*b = 2 c*b, built directly with int coefficients and parsed from text
DIRECT_ARROWS = [Arrow("a", 1, 2), Arrow("b", 2, 3), Arrow("c", 1, 2)]
DIRECT_TEXT = """\
vertices 3
arrow a: 1 -> 2
arrow b: 2 -> 3
arrow c: 1 -> 2
relation a*b + -2 c*b
"""


def test_integer_coefficients_are_stored_as_fractions():
    relation = {(1, ("a", "b")): 1, (1, ("c", "b")): -2}
    q = BoundQuiver(3, DIRECT_ARROWS, [relation])
    parsed = parse_algebra(DIRECT_TEXT)
    assert q.fingerprint() == parsed.fingerprint()
    assert q.path_basis == parsed.path_basis
    assert all(type(c) is Fraction for r in q.relations for c in r.values())
    assert all(type(c) is int for c in relation.values())  # the caller's dict is untouched


@pytest.mark.parametrize("coefficient", [-2.0, 0.5, True], ids=["integral_float", "float", "bool"])
def test_inexact_coefficients_rejected(coefficient):
    with pytest.raises(AlgebraError, match="not an int or Fraction"):
        BoundQuiver(3, DIRECT_ARROWS, [{(1, ("a", "b")): 1, (1, ("c", "b")): coefficient}])


def test_memo_sizes_count_one_entry_per_argument_tuple():
    q = parse_algebra(A3_REL_TEXT)
    p1, p2 = projective(q, 1), projective(q, 2)
    assert hom_basis(p1, p2) is hom_basis(p1, p2)
    hom_basis(p2, p1)
    sizes = memo_sizes(q)
    assert sizes["tautilt.modules.hom_basis"] == 2
    assert sizes["tautilt.modules.projective"] == 2


def test_raising_and_keyword_calls_add_no_entry():
    q = parse_algebra(A3_REL_TEXT)
    p1, p2 = projective(q, 1), projective(q, 2)
    before = memo_sizes(q)
    with pytest.raises(ValueError):
        projective(q, 0)
    with pytest.raises(TypeError):
        hom_basis(p1, n=p2)
    assert memo_sizes(q) == before


def test_equal_arguments_share_one_entry():
    q = parse_algebra(A3_REL_TEXT)
    parts = [projective(q, i) for i in (1, 2, 3)]
    pair = TauPair(q, parts, ())
    rebuilt = TauPair(q, parts[::-1], ())
    assert rebuilt is not pair and rebuilt == pair
    assert g_matrix(rebuilt) is g_matrix(pair)
    assert memo_sizes(q)["tautilt.tautilting.g_matrix"] == 1


def test_a_newly_memoised_function_gets_its_own_table():
    q = parse_algebra(A3_REL_TEXT)
    calls = []

    def dims_of(m):
        calls.append(m)
        return m.dims

    counted = memoised(dims_of)
    p1 = projective(q, 1)
    assert counted(p1) == counted(p1) == p1.dims
    assert calls == [p1]
    assert memo_sizes(q) == {"tautilt.modules.projective": 1,
                             f"{dims_of.__module__}.{dims_of.__qualname__}": 1}
