"""Geometric emission: chambers, walls, exchange-graph DOT, fan JSON, SVG.

Chambers are the cones spanned by the g-vector columns of a pair; the walls
around a chamber are normal to its c-vectors and are cut out of the brick
hyperplanes by the submodule constraints.  Everything upstream is exact;
floating point appears only inside the SVG emitter, with a fixed 6-decimal
output precision so emission is byte-stable.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

from .modules import Representation
from .stability import pairing, slate_for_node, submodule_dim_vectors
from .tautilting import (
    ExchangeGraph,
    TauPair,
    TheoremViolationError,
    c_matrix,
    g_matrix,
)

FAN_SCHEMA_VERSION = 1


class Wall(NamedTuple):
    """Codimension-one stability space of a brick: the hyperplane normal to
    its dimension vector, cut by <theta, L> <= 0 over proper submodules L."""
    normal: tuple[int, ...]
    facets: tuple[tuple[int, ...], ...]


class Chamber(NamedTuple):
    pair_id: int
    pair: TauPair
    generators: tuple[tuple[int, ...], ...]      # columns of G
    wall_normals: tuple[tuple[int, ...], ...]    # columns of C (signed)


class Fan(NamedTuple):
    algebra_fingerprint: str
    chambers: tuple[Chamber, ...]
    walls: tuple[Wall, ...]


def chamber_of_pair(pair: TauPair, pair_id: int = 0) -> Chamber:
    """Assemble a chamber and assert the exact orthogonality C^T G = Id,
    reading (C^T G)_ij as <c_i, g_j>."""
    g, c = g_matrix(pair), c_matrix(pair)
    for i, c_i in enumerate(c):
        for j, g_j in enumerate(g):
            if pairing(c_i, g_j) != (1 if i == j else 0):
                raise TheoremViolationError("C^T G is not the identity")
    return Chamber(pair_id, pair, g, c)


def wall_of_brick(brick: Representation, p: int = 2) -> Wall:
    """Wall data of a brick: normal plus the facet constraints coming from
    its proper nonzero submodule dimension vectors."""
    dims = brick.dims
    zero = (0,) * brick.algebra.n
    facets = sorted(d for d in submodule_dim_vectors(brick, p)
                    if d not in (zero, dims))
    return Wall(dims, tuple(facets))


def shared_wall(pair1: TauPair, pair2: TauPair,
                graph: ExchangeGraph) -> tuple[tuple[int, ...], Representation]:
    """Label of the edge between two adjacent nodes: the positive c-vector of
    the Fac-larger node and the brick at the exchanged slot.  The first
    argument must be the Fac-larger endpoint."""
    i1 = graph.node_index(pair1)
    i2 = graph.node_index(pair2)
    for e in graph.edges:
        if (e.src, e.dst) == (i1, i2):
            slate = slate_for_node(graph, i1)
            return e.c_vector, slate.bricks[e.slot]
        if (e.src, e.dst) == (i2, i1):
            raise ValueError("arguments are ordered against the Fac inclusion; "
                             "pass the Fac-larger pair first")
    raise ValueError("nodes are not adjacent in the exchange graph")


def build_fan(graph: ExchangeGraph, prime: int = 2) -> Fan:
    """Chambers for every node and deduplicated walls for every brick."""
    chambers = []
    wall_by_brick: dict[int, Wall] = {}
    for idx, pair in enumerate(graph.nodes):
        chambers.append(chamber_of_pair(pair, pair_id=idx))
        slate = slate_for_node(graph, idx)
        for b in slate.bricks:
            bid = graph.registry.find(b)
            if bid not in wall_by_brick:
                wall_by_brick[bid] = wall_of_brick(b, prime)
    walls = tuple(w for _bid, w in sorted(wall_by_brick.items(),
                                          key=lambda kv: (kv[1].normal, kv[0])))
    return Fan(graph.algebra.fingerprint(), tuple(chambers), walls)


# ----------------------------------------------------------------------
# DOT
# ----------------------------------------------------------------------

def emit_dot(graph: ExchangeGraph) -> str:
    """Deterministic DOT digraph; arrows run from the Fac-larger node and
    carry the positive c-vector and the brick dimension vector."""
    lines = ["digraph exchange {"]
    lines.append(f'  label="exchange graph ({graph.algebra.fingerprint()})";')
    for idx, pair in enumerate(graph.nodes):
        lines.append(f'  n{idx} [label="{pair.descriptor()}"];')
    for e in sorted(graph.edges, key=lambda e: (e.src, e.slot)):
        slate = slate_for_node(graph, e.src)
        brick = slate.bricks[e.slot]
        c_str = "(" + ",".join(str(x) for x in e.c_vector) + ")"
        b_str = "(" + ",".join(str(d) for d in brick.dims) + ")"
        lines.append(f'  n{e.src} -> n{e.dst} [label="c={c_str} b={b_str}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# fan JSON
# ----------------------------------------------------------------------

def emit_fan_json(fan: Fan) -> str:
    """Fan JSON.  Its chambers are the nodes reached by mutation, and each
    wall's normal is its brick's dimension vector ("brick_dim")."""
    payload = {
        "version": FAN_SCHEMA_VERSION,
        "algebra": fan.algebra_fingerprint,
        "reachable_chambers_only": True,
        "chambers": [
            {
                "pair_id": ch.pair_id,
                "pair": ch.pair.descriptor(),
                "generators": [list(g) for g in ch.generators],
                "wall_normals": [list(w) for w in ch.wall_normals],
            }
            for ch in fan.chambers
        ],
        "walls": [
            {
                "normal": list(w.normal),
                "facets": [list(f) for f in w.facets],
                "brick_dim": list(w.normal),
            }
            for w in fan.walls
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ----------------------------------------------------------------------
# SVG (rank 3 only)
# ----------------------------------------------------------------------

_SVG_SCALE = 60.0
_SVG_HALF = 480.0
_SVG_PROJECTION_POINT = (1, 1, 1)
_PALETTE = ["#c0392b", "#1e8449", "#1f4e9c", "#7d3c98", "#8a6d3b",
            "#0e7c7b", "#b7543d", "#5d6d7e"]


def _fmt(x: float) -> str:
    # fixed precision keeps the output byte-stable; avoid "-0.000000"
    s = f"{x:.6f}"
    return "0.000000" if s == "-0.000000" else s


def _normalize(v):
    norm = math.sqrt(sum(x * x for x in v))
    return tuple(x / norm for x in v)


def _project(x, q, u, w):
    """Stereographic projection from q onto the tangent plane at -q."""
    denom = 1.0 - sum(a * b for a, b in zip(q, x))
    if abs(denom) < 1e-12:
        return None
    t = 2.0 / denom
    y = tuple(qi + t * (xi - qi) for qi, xi in zip(q, x))
    return (sum(a * b for a, b in zip(y, u)), sum(a * b for a, b in zip(y, w)))


def _plane_basis(n):
    """Orthonormal basis of the plane normal to n (floats)."""
    nn = _normalize(n)
    trial = (1.0, 0.0, 0.0) if abs(nn[0]) < 0.9 else (0.0, 1.0, 0.0)
    dot = sum(a * b for a, b in zip(trial, nn))
    e = tuple(t - dot * m for t, m in zip(trial, nn))
    e = _normalize(e)
    f = (nn[1] * e[2] - nn[2] * e[1],
         nn[2] * e[0] - nn[0] * e[2],
         nn[0] * e[1] - nn[1] * e[0])
    return e, f


def _circle_through(p1, p2, p3):
    ax, ay = p1
    bx, by = p2
    cx, cy = p3
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < 1e-12:
        return None
    ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
          + (cx * cx + cy * cy) * (ay - by)) / d
    uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
          + (cx * cx + cy * cy) * (bx - ax)) / d
    r = math.hypot(ax - ux, ay - uy)
    return (ux, uy), r


def _to_pixels(p):
    return (_SVG_HALF + _SVG_SCALE * p[0], _SVG_HALF - _SVG_SCALE * p[1])


def _allowed_intervals(wall: Wall, e, f):
    """Angle intervals of the great circle satisfying every facet constraint.

    Signs are sampled at interval midpoints; boundary angles come from the
    facet hyperplanes, so midpoints sit strictly inside a sign region.
    """
    cuts = [0.0]
    for facet in wall.facets:
        a = sum(ei * di for ei, di in zip(e, facet))
        b = sum(fi * di for fi, di in zip(f, facet))
        if abs(a) < 1e-12 and abs(b) < 1e-12:
            continue
        phi = math.atan2(-a, b)
        cuts.extend([phi % (2 * math.pi), (phi + math.pi) % (2 * math.pi)])
    cuts = sorted(set(round(c, 12) for c in cuts))
    intervals = []
    for k, start in enumerate(cuts):
        end = cuts[(k + 1) % len(cuts)]
        if k == len(cuts) - 1:
            end += 2 * math.pi
        mid = (start + end) / 2.0
        x = tuple(math.cos(mid) * ei + math.sin(mid) * fi for ei, fi in zip(e, f))
        ok = all(sum(xi * di for xi, di in zip(x, facet)) <= 1e-9
                 for facet in wall.facets)
        if ok and end - start > 1e-9:
            intervals.append((start, end))
    # merge adjacent intervals
    merged = []
    for start, end in intervals:
        if merged and abs(merged[-1][1] - start) < 1e-9:
            merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    if len(merged) > 1 and abs((merged[0][0] + 2 * math.pi) - merged[-1][1]) < 1e-9:
        first = merged.pop(0)
        merged[-1] = (merged[-1][0], first[1] + 2 * math.pi)
    return merged


def _wall_svg_elements(wall: Wall, q, u, w, color: str) -> list[str]:
    e, f = _plane_basis(wall.normal)
    intervals = _allowed_intervals(wall, e, f)

    def point(phi):
        x = tuple(math.cos(phi) * ei + math.sin(phi) * fi for ei, fi in zip(e, f))
        return _project(x, q, u, w)

    elems = []
    full_circle = len(intervals) == 1 and \
        abs((intervals[0][1] - intervals[0][0]) - 2 * math.pi) < 1e-6
    samples = [point(phi) for phi in (0.1, 2.2, 4.3)]
    if any(s is None for s in samples):
        samples = [point(phi) for phi in (0.7, 2.8, 4.9)]
    circ = _circle_through(*samples)
    if circ is None:
        return elems
    (cx, cy), r = circ
    label = "(" + ",".join(str(x) for x in wall.normal) + ")"
    if full_circle:
        px, py = _to_pixels((cx, cy))
        elems.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(r * _SVG_SCALE)}" '
                     f'fill="none" stroke="{color}" stroke-width="1.2"/>')
        lx, ly = _to_pixels((cx, cy + r))
        elems.append(f'<text x="{_fmt(lx + 4)}" y="{_fmt(ly - 4)}" fill="{color}" '
                     f'font-size="13">{label}</text>')
        return elems
    for start, end in intervals:
        p_start = point(start + 1e-9)
        p_end = point(end - 1e-9)
        p_mid = point((start + end) / 2.0)
        if p_start is None or p_end is None or p_mid is None:
            continue
        x1, y1 = _to_pixels(p_start)
        x2, y2 = _to_pixels(p_end)
        mx, my = _to_pixels(p_mid)
        rr = r * _SVG_SCALE
        cxp, cyp = _to_pixels((cx, cy))
        ang1 = math.atan2(y1 - cyp, x1 - cxp)
        ang2 = math.atan2(y2 - cyp, x2 - cxp)
        angm = math.atan2(my - cyp, mx - cxp)
        sweep_ccw = ((angm - ang1) % (2 * math.pi)) <= ((ang2 - ang1) % (2 * math.pi))
        if sweep_ccw:
            span = (ang2 - ang1) % (2 * math.pi)
            sweep_flag = 1
        else:
            span = (ang1 - ang2) % (2 * math.pi)
            sweep_flag = 0
        large = 1 if span > math.pi else 0
        elems.append(
            f'<path d="M {_fmt(x1)} {_fmt(y1)} A {_fmt(rr)} {_fmt(rr)} 0 '
            f'{large} {sweep_flag} {_fmt(x2)} {_fmt(y2)}" fill="none" '
            f'stroke="{color}" stroke-width="1.2"/>')
        elems.append(f'<text x="{_fmt(mx + 4)}" y="{_fmt(my - 4)}" fill="{color}" '
                     f'font-size="13">{label}</text>')
    return elems


def chamber_tag_direction(chamber: Chamber) -> tuple[float, ...]:
    """Interior direction of a chamber: barycenter of its normalised
    generators (before projection); used to place the chamber tag."""
    gens = [_normalize(g) for g in chamber.generators]
    s = tuple(sum(g[i] for g in gens) for i in range(len(gens[0])))
    return _normalize(s)


def emit_svg_stereographic(fan: Fan) -> str:
    """Stereographic picture of the rank-3 wall-and-chamber structure.

    Each wall contributes the projection of its sphere circle (clipped to the
    facet-allowed arcs); each chamber is tagged at the projection of its
    normalised g-vector barycenter.  Projection is taken from the normalised
    (1, 1, 1), so a tag aligned with it is pinned to a margin corner.
    """
    n = len(fan.chambers[0].generators[0]) if fan.chambers else 0
    if n != 3:
        raise ValueError("stereographic emission requires a rank-3 algebra")
    q = _normalize(_SVG_PROJECTION_POINT)
    trial = (1.0, -1.0, 0.0)
    dot = sum(a * b for a, b in zip(trial, q))
    u = _normalize(tuple(t - dot * m for t, m in zip(trial, q)))
    w = (q[1] * u[2] - q[2] * u[1],
         q[2] * u[0] - q[0] * u[2],
         q[0] * u[1] - q[1] * u[0])
    size = int(2 * _SVG_HALF)
    body = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
            f'height="{size}" viewBox="0 0 {size} {size}">',
            f'<rect width="{size}" height="{size}" fill="white"/>']
    for k, wall in enumerate(fan.walls):
        color = _PALETTE[k % len(_PALETTE)]
        body.extend(_wall_svg_elements(wall, q, u, w, color))
    corner_used = 0
    for ch in fan.chambers:
        tag_dir = chamber_tag_direction(ch)
        proj = _project(tag_dir, q, u, w)
        label = ch.pair.descriptor()
        if proj is None or math.hypot(*proj) * _SVG_SCALE > _SVG_HALF * 0.92:
            x, y = 10.0, 20.0 + 16.0 * corner_used
            corner_used += 1
            body.append(f'<text x="{_fmt(x)}" y="{_fmt(y)}" fill="#333" '
                        f'font-size="11">[far] {label}</text>')
            continue
        x, y = _to_pixels(proj)
        body.append(f'<text x="{_fmt(x)}" y="{_fmt(y)}" fill="#333" '
                    f'font-size="11" text-anchor="middle">{label}</text>')
    body.append("</svg>")
    return "\n".join(body) + "\n"
