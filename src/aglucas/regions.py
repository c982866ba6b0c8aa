"""Bounded convex regions of the plane and their offset contours.

Three shapes are supported: disks, segments, and strictly convex polygons
with counterclockwise vertices.  Degenerate point sets (a zero-radius disk or
a segment with equal endpoints) are allowed everywhere.  Internally every
region is the convex hull of one or more vertices thickened by a radius, so
one projection onto that hull serves distances, closest points, diameters,
centroids and offset curves alike.  Neighborhoods are
treated as closed: membership tests use distance <= eps + membership_tol so
boundary points count reproducibly under floating point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

MEMBERSHIP_TOL = 1e-9
CONTOUR_TOL = 1e-9

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")


@dataclass(frozen=True)
class Segment:
    a: complex
    b: complex

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))


@dataclass(frozen=True)
class ConvexPolygon:
    vertices: tuple[complex, ...]

    def __post_init__(self):
        verts = tuple(complex(v) for v in self.vertices)
        n = len(verts)
        if n < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        for i in range(n):
            u = verts[(i + 1) % n] - verts[i]
            w = verts[(i + 2) % n] - verts[(i + 1) % n]
            if _cross(u, w) <= 0:
                raise ValueError(
                    "vertices must be strictly convex in counterclockwise order")
        object.__setattr__(self, "vertices", verts)


ConvexRegion = Disk | Segment | ConvexPolygon


@dataclass(frozen=True, eq=False)
class OffsetContour:
    """Closed sample sequence tracing {z : d(z, region) = offset_distance},
    winding once counterclockwise.  The curve closes implicitly from the last
    sample back to the first."""

    samples: np.ndarray
    offset_distance: float
    region: ConvexRegion

    def __post_init__(self):
        arr = np.array(self.samples, dtype=np.complex128)
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "offset_distance", float(self.offset_distance))


def _cross(u: complex, w: complex) -> float:
    return u.real * w.imag - u.imag * w.real


def _hull(region: ConvexRegion) -> tuple[tuple[complex, ...], float]:
    """The region as (vertices, radius): the points within radius of the
    convex hull of the vertices.  A disk is its centre thickened by its
    radius, a segment its two ends, a polygon its ccw vertices.  A segment
    whose squared length is 0 in floating point is its one end, since
    projecting onto it divides by that square."""
    if isinstance(region, Disk):
        return (region.center,), region.radius
    if isinstance(region, Segment):
        if abs(region.b - region.a) ** 2 == 0:
            return (region.a,), 0.0
        return (region.a, region.b), 0.0
    return region.vertices, 0.0


def _project(z: np.ndarray, vertices, closest=None) -> np.ndarray:
    """Distance from each point of the 1-d array z to the convex hull of the
    vertices (one point, a segment's two ends or a ccw polygon).  Given an
    array of z's shape as closest and two or more vertices, also writes the
    closest hull point there; a point inside a polygon is its own."""
    if len(vertices) == 1:
        return np.abs(z - vertices[0])
    polygon = len(vertices) > 2
    inside = np.full(z.shape, polygon)
    best = np.full(z.shape, np.inf)
    for i in range(len(vertices) if polygon else 1):
        u = vertices[i]
        e = vertices[(i + 1) % len(vertices)] - u
        rel = z - u
        if polygon:
            inside &= (e.real * rel.imag - e.imag * rel.real) >= 0
        t = np.minimum(np.maximum(
            (rel.real * e.real + rel.imag * e.imag) / abs(e) ** 2, 0.0), 1.0)
        foot = u + t * e
        dist = np.abs(z - foot)
        if closest is not None:
            np.copyto(closest, foot, where=dist < best)
        np.minimum(best, dist, out=best)
    if polygon:
        best[inside] = 0.0
        if closest is not None:
            np.copyto(closest, z, where=inside)
    return best


def diameter(region: ConvexRegion) -> float:
    """Supremum of pairwise distances within the region."""
    verts, radius = _hull(region)
    gap = max((abs(u - w) for u, w in itertools.combinations(verts, 2)),
              default=0.0)
    return gap + 2.0 * radius


def centroid(region: ConvexRegion) -> complex:
    verts, _ = _hull(region)
    if len(verts) < 3:
        return 0.5 * (verts[0] + verts[-1])
    area2 = 0.0
    acc = 0j
    for i in range(len(verts)):
        u, w = verts[i], verts[(i + 1) % len(verts)]
        c = _cross(u, w)
        area2 += c
        acc += (u + w) * c
    return acc / (3.0 * area2)


def _polygon_contains(z: complex, verts) -> bool:
    n = len(verts)
    for i in range(n):
        if _cross(verts[(i + 1) % n] - verts[i], z - verts[i]) < 0:
            return False
    return True


def distance(z, region: ConvexRegion):
    """Distance from z, a point or an array of points, to the region, and
    the closest point of the region: (0, z) where z lies in the region.

    A point gives (float, complex), an array two arrays of its shape.  The
    distance is exactly what ``distances`` returns.
    """
    arr = np.asarray(z, dtype=np.complex128)
    flat = arr.ravel()
    verts, radius = _hull(region)
    w = np.full_like(flat, verts[0]) if len(verts) == 1 else np.empty_like(flat)
    d = _project(flat, verts, w)
    dist = np.maximum(d - radius, 0.0)
    if radius:
        # step from z toward the hull point by dist, so z stays put where
        # dist = 0; d <= radius there, and max(d, radius) never divides by 0
        w = flat - dist / np.maximum(d, radius) * (flat - w)
    if arr.ndim == 0:
        return float(dist[0]), complex(w[0])
    return dist.reshape(arr.shape), w.reshape(arr.shape)


def distances(zs, region: ConvexRegion) -> np.ndarray:
    """Distance from each point of zs (an array of any shape) to the
    region."""
    arr = np.asarray(zs, dtype=np.complex128)
    verts, radius = _hull(region)
    d = _project(arr.ravel(), verts)
    return np.maximum(d - radius, 0.0).reshape(arr.shape)


def _check_eps(eps: float) -> None:
    """ValueError unless eps is nonnegative; nan is not."""
    if not eps >= 0:
        raise ValueError(f"eps must be nonnegative, got {eps!r}")


def in_neighborhood(z: complex, region: ConvexRegion, eps: float,
                    membership_tol: float = MEMBERSHIP_TOL) -> bool:
    """Closed eps-neighborhood membership; eps = 0 tests the region itself."""
    _check_eps(eps)
    return bool(distances(z, region) <= eps + membership_tol)


def _offset_pieces(region: ConvexRegion, d: float):
    """Decompose the offset curve into ccw arcs and straight edges."""
    verts, radius = _hull(region)
    d = radius + d
    n = len(verts)
    if n == 1:
        return [("arc", verts[0], d, 0.0, _TWO_PI)]
    pieces = []
    normals = []
    for i in range(n):
        t = verts[(i + 1) % n] - verts[i]
        normals.append(-1j * t / abs(t))
    for i in range(n):
        nrm = normals[i]
        pieces.append(("edge", verts[i] + nrm * d, verts[(i + 1) % n] + nrm * d))
        th0 = math.atan2(nrm.imag, nrm.real)
        th1 = math.atan2(normals[(i + 1) % n].imag, normals[(i + 1) % n].real)
        sweep = (th1 - th0) % _TWO_PI
        pieces.append(("arc", verts[(i + 1) % n], d, th0, sweep))
    return pieces


def offset_contour(region: ConvexRegion, d: float,
                   min_samples: int = 64) -> OffsetContour:
    """Sample the outward offset curve at distance d > 0 from the region.

    Straight edges are offset in parallel and joined by circular arcs at the
    vertices; samples are spaced at arc length at most perimeter/min_samples.
    """
    if d <= 0:
        raise ValueError("offset distance must be positive")
    if min_samples < 4:
        raise ValueError("need at least 4 samples")
    pieces = _offset_pieces(region, d)
    lengths = [p[2] * p[4] if p[0] == "arc" else abs(p[2] - p[1])
               for p in pieces]
    h = sum(lengths) / min_samples
    parts = []
    for piece, length in zip(pieces, lengths):
        if length == 0:
            continue
        m = max(1, math.ceil(length / h - 1e-12))
        j = np.arange(m)
        if piece[0] == "arc":
            _, center, radius, th0, sweep = piece
            th = th0 + sweep * j / m
            parts.append(center + radius * (np.cos(th) + 1j * np.sin(th)))
        else:
            _, start, end = piece
            parts.append(start + (end - start) * (j / m))
    return OffsetContour(np.concatenate(parts), d, region)


def scale_region(region: ConvexRegion, factor: complex) -> ConvexRegion:
    """Image of the region under z -> factor * z (rotation and scaling)."""
    factor = complex(factor)
    if factor == 0:
        raise ValueError("factor must be nonzero")
    if isinstance(region, Disk):
        return Disk(factor * region.center, abs(factor) * region.radius)
    if isinstance(region, Segment):
        return Segment(factor * region.a, factor * region.b)
    return ConvexPolygon(tuple(factor * v for v in region.vertices))


def sample_point(region: ConvexRegion, rng: np.random.Generator) -> complex:
    """Uniform sample from the region (uniform along a segment)."""
    if isinstance(region, Disk):
        r = region.radius * math.sqrt(rng.random())
        th = _TWO_PI * rng.random()
        return region.center + r * complex(math.cos(th), math.sin(th))
    if isinstance(region, Segment):
        return region.a + rng.random() * (region.b - region.a)
    verts = region.vertices
    xs = [v.real for v in verts]
    ys = [v.imag for v in verts]
    while True:
        z = complex(rng.uniform(min(xs), max(xs)), rng.uniform(min(ys), max(ys)))
        if _polygon_contains(z, verts):
            return z


def convex_hull_region(points) -> ConvexRegion:
    """Convex hull of a finite point set as a region.

    Collapses to a point (zero-radius disk) or a segment when the hull is
    degenerate; otherwise returns a strictly convex ccw polygon.
    """
    pts = sorted({(complex(z).real, complex(z).imag) for z in points})
    if not pts:
        raise ValueError("need at least one point")
    if len(pts) == 1:
        return Disk(complex(*pts[0]), 0.0)
    span = max(abs(pts[-1][0] - pts[0][0]),
               max(p[1] for p in pts) - min(p[1] for p in pts))
    tol = 1e-13 * max(1.0, span) ** 2

    def half(seq):
        out: list[tuple[float, float]] = []
        for p in seq:
            while len(out) >= 2 and _cross(
                    complex(out[-1][0] - out[-2][0], out[-1][1] - out[-2][1]),
                    complex(p[0] - out[-1][0], p[1] - out[-1][1])) <= tol:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) <= 2:
        return Segment(complex(*pts[0]), complex(*pts[-1]))
    return ConvexPolygon(tuple(complex(*p) for p in hull))
