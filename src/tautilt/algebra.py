"""Bound quiver algebras: parsing, path rewriting and the finite path basis.

An algebra is presented by a quiver and a list of admissible relations.  Paths
compose left to right: ``a*b`` means "traverse a, then b".  The path basis is
the set of rewriting-irreducible paths; relations act as rewriting rules for
their leading path under the length-then-name lexicographic path order.  A
path is rewritten at its leftmost match by the rule with the longest left
side, then the smaller name, through one ``_rewrite`` step.
"""

from __future__ import annotations

import functools
import hashlib
import re
from fractions import Fraction
from typing import NamedTuple

from . import linalg

# A path is (source_vertex, tuple_of_arrow_names); trivial paths have no arrows.
Path = tuple[int, tuple[str, ...]]
# A combo is a linear combination of parallel paths.
Combo = dict[Path, Fraction]

PATH_CAP = 60
# basis paths past this many mean the ideal is not admissible or the algebra
# is far beyond exact enumeration; without it, irreducible paths that double
# with each length (two free loops) would be listed until memory runs out
BASIS_CAP = 10_000
_BASIS_CAP_MESSAGE = (f"path basis exceeds {BASIS_CAP} paths; ideal is not admissible "
                      "or the algebra is too large")


def _add_into(out: Combo, terms: Combo, scale) -> None:
    """Add ``scale`` times ``terms`` into ``out``, dropping zero coefficients."""
    for p, c in terms.items():
        c = out.get(p, 0) + scale * c
        if c:
            out[p] = c
        else:
            out.pop(p, None)


class AlgebraError(ValueError):
    """Raised for malformed or non-admissible algebra presentations."""


class Arrow(NamedTuple):
    name: str
    source: int
    target: int


def memoised(fn):
    """Memoise ``fn`` in its own table, ``_memo[fn]``, of the ``.algebra`` of
    its first argument (a :class:`BoundQuiver` is its own algebra), keyed by
    the call's argument tuple; :func:`memo_sizes` reads the table sizes.

    Memoised functions take their arguments positionally and have no
    defaults, so each call has one spelling and one entry; a keyword call
    raises ``TypeError``.  A call that raises stores nothing.  Arguments must
    be hashable, and equal arguments must mean equal answers: interned
    representations and exchange graphs key by identity, tau-tilting pairs by
    their parts.  Every caller shares one answer, so answers must be
    immutable values (tuples, frozensets, matrices, read-only mappings),
    never a list, set or dict a caller could change.
    """
    @functools.wraps(fn)
    def wrapper(*args):
        memo = args[0].algebra._memo
        try:
            return memo[fn][args]
        except KeyError:
            pass
        answer = fn(*args)
        # setdefault: a thread that lost a race adopts the winner's answer
        return memo.setdefault(fn, {}).setdefault(args, answer)

    return wrapper


def memo_sizes(q: BoundQuiver) -> dict[str, int]:
    """The number of memoised answers over ``q`` per ``module.qualname``."""
    return {f"{fn.__module__}.{fn.__qualname__}": len(table) for fn, table in q._memo.items()}


class BoundQuiver:
    """A finite-dimensional bound quiver algebra with a computed path basis.

    Instances are immutable after construction.  The only mutable state is
    ``_interned`` and ``_memo``, both append-only stores of pure results, so
    sharing across threads or reusing one instance for many computations is
    safe.  ``_memo`` holds one table per :func:`memoised` function.
    """

    def __init__(self, n_vertices: int, arrows: list[Arrow],
                 relations: list[Combo]):
        if n_vertices < 1:
            raise AlgebraError("need at least one vertex")
        # relations have length >= 2, so every vertex and arrow is a basis path
        if n_vertices + len(arrows) > BASIS_CAP:
            raise AlgebraError(_BASIS_CAP_MESSAGE)
        self.n = n_vertices
        self.arrows = list(arrows)
        self.arrow_by_name = {a.name: a for a in arrows}
        if len(self.arrow_by_name) != len(arrows):
            raise AlgebraError("duplicate arrow names")
        for a in arrows:
            if not (1 <= a.source <= self.n and 1 <= a.target <= self.n):
                raise AlgebraError(f"arrow {a.name} touches a missing vertex")
        self.relations = [dict(r) for r in relations]
        self._validate_relations()
        self._rules = self._build_rules()
        self._check_local_confluence()
        self.path_basis: list[Path] = self._compute_basis()
        self._basis_index = {p: i for i, p in enumerate(self.path_basis)}
        # basis paths grouped by (source, target) in basis order
        self.basis_by_pair: dict[tuple[int, int], list[Path]] = {}
        for p in self.path_basis:
            self.basis_by_pair.setdefault((p[0], self.path_target(p)), []).append(p)
        self._check_nilpotent()
        # every Representation over this algebra, keyed by its exact value
        # (dims plus every arrow-matrix entry): building an equal value
        # returns the same object, so a representation object names a value
        self._interned: dict = {}
        # every @memoised answer over this algebra: one table per function,
        # keyed by the arguments; interned modules key by identity, hence by value
        self._memo: dict = {}
        self.algebra = self  # where a memoised function's first argument finds _memo

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------

    def trivial_path(self, i: int) -> Path:
        return (i, ())

    def path_target(self, p: Path) -> int:
        source, names = p
        return self.arrow_by_name[names[-1]].target if names else source

    def path_is_valid(self, p: Path) -> bool:
        source, names = p
        at = source
        for name in names:
            a = self.arrow_by_name.get(name)
            if a is None or a.source != at:
                return False
            at = a.target
        return True

    def path_str(self, p: Path) -> str:
        source, names = p
        return f"e{source}" if not names else "*".join(names)

    def _path_key(self, p: Path):
        # length-then-name order; multiplication-compatible, hence terminating
        return (len(p[1]), p[1])

    # ------------------------------------------------------------------
    # rewriting
    # ------------------------------------------------------------------

    def _validate_relations(self) -> None:
        for combo in self.relations:
            if not combo:
                raise AlgebraError("empty relation")
            ends = set()
            for p, c in combo.items():
                if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
                    raise AlgebraError(f"relation coefficient {c!r} is not an int or Fraction")
                combo[p] = Fraction(c)  # a new value, not a new key: safe mid-iteration
                if not self.path_is_valid(p):
                    raise AlgebraError(f"relation uses invalid path {self.path_str(p)}")
                if len(p[1]) < 2:
                    raise AlgebraError(
                        "relation contains a path of length < 2; ideal not admissible")
                if c == 0:
                    raise AlgebraError("zero coefficient in relation")
                ends.add((p[0], self.path_target(p)))
            if len(ends) > 1:
                raise AlgebraError("relation joins non-parallel paths")

    def _build_rules(self) -> dict[tuple[str, ...], Combo]:
        """Turn each relation into a rule leading_path -> combination of smaller paths."""
        pending = [dict(r) for r in self.relations]
        rules: dict[tuple[str, ...], Combo] = {}
        guard = 0
        while pending:
            guard += 1
            if guard > 1000:
                raise AlgebraError("relation normalisation does not stabilise")
            combo = pending.pop()
            lead = max(combo, key=self._path_key)
            c_lead = combo[lead]
            rhs: Combo = {p: -c / c_lead for p, c in combo.items() if p != lead}
            if lead[1] in rules:
                # two rules for one leading path: their difference is a new relation
                diff: Combo = dict(rules[lead[1]])
                _add_into(diff, rhs, -1)
                if diff:
                    pending.append(diff)
                continue
            rules[lead[1]] = rhs
        # longest left side first, then by name: the order _reduce_once tries them
        rules = {lhs: rules[lhs] for lhs in sorted(rules, key=lambda t: (-len(t), t))}
        # normalise every right-hand side against the full rule set
        changed = True
        rounds = 0
        while changed:
            rounds += 1
            if rounds > 1000:
                raise AlgebraError("rule inter-reduction does not stabilise")
            changed = False
            for lhs in rules:
                reduced = self._normalise_combo(rules[lhs], rules)
                if reduced != rules[lhs]:
                    rules[lhs] = reduced
                    changed = True
        return rules

    def _rewrite(self, p: Path, start: int, lhs: tuple[str, ...], rules) -> Combo:
        """Replace ``lhs`` at position ``start`` of ``p`` by its rule's right side."""
        source, names = p
        head, tail = names[:start], names[start + len(lhs):]
        return {(source, head + rp[1] + tail): c for rp, c in rules[lhs].items()}

    def _reduce_once(self, p: Path, rules) -> Combo | None:
        """Apply one rule at the leftmost matching position, or None if irreducible."""
        names = p[1]
        for start in range(len(names)):
            for lhs in rules:
                if names[start:start + len(lhs)] == lhs:
                    return self._rewrite(p, start, lhs, rules)
        return None

    def _normalise_combo(self, combo: Combo, rules=None) -> Combo:
        if rules is None:
            rules = self._rules
        work = dict(combo)
        result: Combo = {}
        guard = 0
        while work:
            guard += 1
            if guard > 100000:
                raise AlgebraError("path normalisation does not terminate")
            p = max(work, key=self._path_key)
            c = work.pop(p)
            step = self._reduce_once(p, rules)
            if step is None:
                result[p] = c  # work only gains paths below p, so p leaves it once
            else:
                _add_into(work, step, c)
        return result

    def normal_form(self, p: Path) -> Combo:
        """Normal form of a path as a combination of basis paths."""
        return self._normalise_combo({p: Fraction(1)})

    def _check_local_confluence(self) -> None:
        """Critical-pair check; with a terminating order this implies confluence."""
        rules = self._rules
        for u in rules:
            for v in rules:
                # overlap: a suffix of u equals a prefix of v
                for k in range(1, min(len(u), len(v)) + (1 if u != v else 0)):
                    if u[len(u) - k:] == v[:k]:
                        word = u + v[k:]
                        self._assert_joinable(word, u, v, len(u) - k)
                # containment: v occurs strictly inside u
                if len(v) < len(u):
                    for start in range(len(u) - len(v) + 1):
                        if u[start:start + len(v)] == v:
                            self._assert_joinable(u, u, v, start)

    def _assert_joinable(self, word: tuple[str, ...], u, v, v_start: int) -> None:
        p = (self.arrow_by_name[word[0]].source, word)
        if not self.path_is_valid(p):
            return
        rules = self._rules
        if (self._normalise_combo(self._rewrite(p, 0, u, rules))
                != self._normalise_combo(self._rewrite(p, v_start, v, rules))):
            raise AlgebraError(
                "relations are not confluent under the fixed path order; "
                "refusing ambiguous presentation")

    # ------------------------------------------------------------------
    # basis
    # ------------------------------------------------------------------

    def _compute_basis(self) -> list[Path]:
        basis: list[Path] = [self.trivial_path(i) for i in range(1, self.n + 1)]
        frontier = list(basis)
        length = 0
        while frontier:
            length += 1
            if length > PATH_CAP:
                raise AlgebraError(
                    f"path basis does not stabilise below length {PATH_CAP}; "
                    "ideal is not admissible")
            new_frontier: list[Path] = []
            for p in frontier:
                tgt = self.path_target(p)
                for a in self.arrows:
                    if a.source != tgt:
                        continue
                    q = (p[0], p[1] + (a.name,))
                    if self._reduce_once(q, self._rules) is None:
                        new_frontier.append(q)
            basis.extend(new_frontier)
            if len(basis) > BASIS_CAP:
                raise AlgebraError(_BASIS_CAP_MESSAGE)
            frontier = new_frontier
        return basis

    def _check_nilpotent(self) -> None:
        """Some power of the arrow ideal J must vanish in the quotient.

        The image of J^k is spanned by the normal forms of the paths of length
        k, computed here as the span of the previous one times the arrows.
        The images of the J^k descend and stay put once two agree, so J^k
        vanishes for some k exactly when it does for k = dim A.
        """
        arrows = [(a.source, (a.name,)) for a in self.arrows]
        span = [{p: Fraction(1)} for p in arrows]  # relations have length >= 2
        for _ in range(self.dimension):
            rows = [[0] * self.dimension for _ in span]
            for row, combo in zip(rows, span):
                for p, c in combo.items():
                    row[self._basis_index[p]] = c
            reduced, pivots = linalg.rref(linalg.Matrix(rows, self.dimension))
            if not pivots:
                return
            basis = [{p: x for p, x in zip(self.path_basis, row) if x}
                     for row in reduced.rows[:len(pivots)]]
            span = [self.compose_combo(b, {a: Fraction(1)}) for b in basis for a in arrows]
        raise AlgebraError(
            "no power of the arrow ideal vanishes in the quotient; ideal not admissible")

    @property
    def dimension(self) -> int:
        return len(self.path_basis)

    # ------------------------------------------------------------------
    # multiplication
    # ------------------------------------------------------------------

    def compose(self, p: Path, q: Path) -> Combo:
        """Normal form of the product p * q (traverse p, then q)."""
        if self.path_target(p) != q[0]:
            return {}
        return self.normal_form((p[0], p[1] + q[1]))

    def compose_combo(self, left: Combo, right: Combo) -> Combo:
        out: Combo = {}
        for p, c in left.items():
            for q, d in right.items():
                if terms := self.compose(p, q):
                    _add_into(out, terms, c * d)
        return out

    # ------------------------------------------------------------------
    # io
    # ------------------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"vertices {self.n}"]
        for a in self.arrows:
            lines.append(f"arrow {a.name}: {a.source} -> {a.target}")
        for combo in self.relations:
            terms = []
            for p in sorted(combo, key=self._path_key):
                c = combo[p]
                terms.append(f"{c} {'*'.join(p[1])}")
            lines.append("relation " + " + ".join(terms))
        return "\n".join(lines) + "\n"

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:16]

    def __repr__(self) -> str:
        return (f"BoundQuiver(n={self.n}, arrows={len(self.arrows)}, "
                f"relations={len(self.relations)}, dim={self.dimension})")


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------

_ARROW_RE = re.compile(r"^arrow\s+(\w+)\s*:\s*(\d+)\s*->\s*(\d+)$")
_COEFF_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_algebra(text: str) -> BoundQuiver:
    """Parse the line-oriented algebra file format.

    Grammar::

        vertices <n>
        arrow <name>: <i> -> <j>
        relation <c1> <path1> [+ <c2> <path2> ...]   # path = a*b*c, c rational

    Comments start with ``#``; coefficients default to 1 and may be negative
    rationals like ``-1/2``.  Raises :class:`AlgebraError` with the offending
    line number on any syntax or admissibility problem.
    """
    n: int | None = None
    arrows: list[Arrow] = []
    relation_specs: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        directive = line.split()[0]
        body = line[len(directive):]
        if directive == "vertices":
            if n is not None:
                raise AlgebraError(f"line {lineno}: duplicate vertices line")
            try:
                (n,) = map(int, body.split())
            except ValueError:
                raise AlgebraError(f"line {lineno}: malformed vertices line") from None
            if n < 1:
                raise AlgebraError(f"line {lineno}: vertex count must be positive")
        elif directive == "arrow":
            m = _ARROW_RE.match(line)
            if not m:
                raise AlgebraError(f"line {lineno}: malformed arrow line")
            arrows.append(Arrow(m.group(1), int(m.group(2)), int(m.group(3))))
        elif directive == "relation":
            relation_specs.append((lineno, body.strip()))
        else:
            raise AlgebraError(f"line {lineno}: unrecognised directive")
    if n is None:
        raise AlgebraError("missing vertices line")

    arrow_by_name = {a.name: a for a in arrows}

    def parse_path(token: str, lineno: int) -> Path:
        names = tuple(token.split("*"))
        first = arrow_by_name.get(names[0])
        if first is None:
            raise AlgebraError(f"line {lineno}: unknown arrow {names[0]!r}")
        at = first.source
        for name in names:
            arrow = arrow_by_name.get(name)
            if arrow is None:
                raise AlgebraError(f"line {lineno}: unknown arrow {name!r}")
            if arrow.source != at:
                raise AlgebraError(
                    f"line {lineno}: path {token!r} does not compose at {name!r}")
            at = arrow.target
        return (first.source, names)

    relations: list[Combo] = []
    for lineno, body in relation_specs:
        if not body:
            raise AlgebraError(f"line {lineno}: empty relation")
        combo: Combo = {}
        sign = Fraction(1)
        tokens = body.split()
        i = 0
        while i < len(tokens):
            tok = tokens[i]
            if tok == "+":
                sign = Fraction(1)
                i += 1
                continue
            if tok == "-":
                sign = Fraction(-1)
                i += 1
                continue
            if _COEFF_RE.match(tok) and i + 1 < len(tokens) and not _COEFF_RE.match(tokens[i + 1]):
                if int(tok.partition("/")[2] or 1) == 0:
                    raise AlgebraError(f"line {lineno}: zero denominator in {tok!r}")
                coeff = sign * Fraction(tok)
                path_tok = tokens[i + 1]
                i += 2
            else:
                coeff = sign
                path_tok = tok
                i += 1
            p = parse_path(path_tok, lineno)
            combo[p] = combo.get(p, Fraction(0)) + coeff
            sign = Fraction(1)
        combo = {p: c for p, c in combo.items() if c != 0}
        if not combo:
            raise AlgebraError(f"line {lineno}: relation cancels to zero")
        relations.append(combo)

    return BoundQuiver(n, arrows, relations)
