import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aglucas import (MEMBERSHIP_TOL, ConvexPolygon, Disk, Segment, centroid,
                     convex_hull_region, count_in, diameter, distance,
                     distances, in_neighborhood, offset_contour, sample_point,
                     scale_region)
from aglucas.regions import _offset_pieces

UNIT_DISK = Disk(0, 1)
UNIT_SEGMENT = Segment(0, 1)
UNIT_SQUARE = ConvexPolygon((0, 1, 1 + 1j, 1j))

finite_complex = st.builds(complex,
                           st.floats(-50, 50, allow_nan=False),
                           st.floats(-50, 50, allow_nan=False))
regions = st.sampled_from([UNIT_DISK, UNIT_SEGMENT, UNIT_SQUARE,
                           Disk(2 - 1j, 0.5), Segment(1j, 2 + 1j),
                           ConvexPolygon((0, 2, 3 + 1j, 1 + 2j))])


class TestDiameter:
    def test_disk(self):
        assert diameter(UNIT_DISK) == 2

    def test_segment(self):
        assert diameter(UNIT_SEGMENT) == 1

    def test_square(self):
        assert diameter(UNIT_SQUARE) == pytest.approx(math.sqrt(2))

    def test_degenerate_point(self):
        assert diameter(Disk(3j, 0)) == 0
        assert diameter(Segment(1, 1)) == 0


REFERENCE_SHAPES = {
    "disk": Disk(0.3 - 0.2j, 1),
    "point_disk": Disk(1 + 1j, 0),
    "segment": Segment(-1 + 0.5j, 2 - 1j),
    "point_segment": Segment(0.7j, 0.7j),
    "underflowing_segment": Segment(0.5, 0.5 + 1e-170j),
    "square": ConvexPolygon((0, 2, 2 + 2j, 2j)),
    "triangle": ConvexPolygon((0, 2, 3 + 1j)),
}


def _reference_distances(zs, region):
    """distances as written per shape before every region became a
    thickened hull; kept as the bitwise reference."""
    arr = np.asarray(zs, dtype=np.complex128)
    if isinstance(region, Disk):
        return np.maximum(np.abs(arr - region.center) - region.radius, 0.0)
    if isinstance(region, Segment):
        a, b = region.a, region.b
        ab = b - a
        denom = abs(ab) ** 2
        if denom == 0:
            return np.abs(arr - a)
        t = ((arr - a).real * ab.real + (arr - a).imag * ab.imag) / denom
        t = np.clip(t, 0.0, 1.0)
        return np.abs(arr - (a + t * ab))
    verts = region.vertices
    n = len(verts)
    flat = arr.ravel()
    inside = np.ones(flat.shape, dtype=bool)
    best = np.full(flat.shape, np.inf)
    for i in range(n):
        u, w = verts[i], verts[(i + 1) % n]
        e = w - u
        rel = flat - u
        inside &= (e.real * rel.imag - e.imag * rel.real) >= 0
        denom = abs(e) ** 2
        t = np.clip((rel.real * e.real + rel.imag * e.imag) / denom, 0.0, 1.0)
        best = np.minimum(best, np.abs(flat - (u + t * e)))
    best[inside] = 0.0
    return best.reshape(arr.shape)


class TestDistance:
    def test_outside_disk(self):
        d, w = distance(2, UNIT_DISK)
        assert d == pytest.approx(1)
        assert w == pytest.approx(1)

    def test_perpendicular_foot(self):
        d, w = distance(1j, UNIT_SEGMENT)
        assert d == pytest.approx(1)
        assert w == pytest.approx(0)

    def test_inside_returns_self(self):
        for region in (UNIT_DISK, UNIT_SEGMENT, UNIT_SQUARE):
            z = 0.5 if not isinstance(region, Disk) else 0.1 + 0.1j
            d, w = distance(z, region)
            assert d == 0
            assert w == z

    def test_polygon_edge_projection(self):
        d, w = distance(0.5 - 1j, UNIT_SQUARE)
        assert d == pytest.approx(1)
        assert w == pytest.approx(0.5)

    def test_vectorized_matches_scalar(self, rng):
        pts = rng.uniform(-3, 3, 64) + 1j * rng.uniform(-3, 3, 64)
        for region in REFERENCE_SHAPES.values():
            d, w = distance(pts, region)
            assert d.shape == w.shape == pts.shape
            assert np.array_equal(d, distances(pts, region))
            for z, dz, wz in zip(pts, d, w):
                assert distance(z, region) == (dz, wz)

    def test_array_keeps_shape(self):
        d, w = distance(np.array([[2, 0.5], [3j, -1]]), UNIT_DISK)
        assert d.shape == w.shape == (2, 2)
        assert np.array_equal(d, [[1, 0], [2, 0]])
        assert np.array_equal(w, [[1, 0.5], [1j, -1]])

    @settings(max_examples=200, deadline=None)
    @given(finite_complex, regions, st.floats(0, 5, allow_nan=False))
    def test_scalar_and_vector_agree_exactly(self, z, region, eps):
        assert distance(z, region)[0] == float(distances([z], region)[0])
        assert in_neighborhood(z, region, eps) == (
            count_in([z], region, eps) == 1)

    @pytest.mark.parametrize("z, eps", [
        (3.0613786820777737 + 0.04444555297819877j, 1.772177095472085),
        (-0.6789739381656688 - 2.0524296312268095j, 1.0952053613105042)])
    def test_recorded_membership_disagreements(self, z, eps):
        # |z - c| rounded differently in the scalar and the vector path
        disk = Disk(0.3 - 0.2j, 1)
        assert in_neighborhood(z, disk, eps) == (count_in([z], disk, eps) == 1)
        assert distance(z, disk)[0] == distances([z], disk)[0]

    @pytest.mark.parametrize("name", sorted(REFERENCE_SHAPES))
    def test_distances_match_reference_bitwise(self, name, rng):
        region = REFERENCE_SHAPES[name]
        pts = rng.uniform(-4, 4, 4000) + 1j * rng.uniform(-4, 4, 4000)
        pts[:8] = [0.3 - 0.2j, 1 + 1j, 0.7j, -1 + 0.5j, 2 - 1j, 0, 2 + 2j, 1]
        got = distances(pts, region)
        want = _reference_distances(pts, region)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


class TestNeighborhood:
    def test_boundary_closed(self):
        assert in_neighborhood(1.5, UNIT_DISK, 0.5)

    def test_beyond_tolerance(self):
        assert not in_neighborhood(1.5 + 10 * MEMBERSHIP_TOL, UNIT_DISK, 0.5)

    @pytest.mark.parametrize("eps", [math.nan, -5.0, -1e-300])
    def test_rejects_nan_and_negative_eps(self, eps):
        with pytest.raises(ValueError, match="eps"):
            in_neighborhood(0.5, UNIT_DISK, eps)

    def test_member_always_inside(self, rng):
        for _ in range(20):
            z = sample_point(UNIT_SQUARE, rng)
            assert in_neighborhood(z, UNIT_SQUARE, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(finite_complex, regions,
           st.floats(0, 5, allow_nan=False), st.floats(0, 3, allow_nan=False))
    def test_monotone_in_eps(self, z, region, eps, extra):
        if in_neighborhood(z, region, eps):
            assert in_neighborhood(z, region, eps + extra)


class TestOffsetContour:
    def test_disk_offset_is_circle(self):
        c = offset_contour(UNIT_DISK, 0.75, 64)
        assert len(c.samples) == 64
        assert np.max(np.abs(np.abs(c.samples) - 1.75)) < 1e-12

    def test_segment_offset_is_stadium(self):
        c = offset_contour(UNIT_SEGMENT, 0.5, 64)
        d = distances(c.samples, UNIT_SEGMENT)
        assert np.max(np.abs(d - 0.5)) < 1e-9
        # stadium perimeter: two straight edges plus a full circle
        seg = np.abs(np.roll(c.samples, -1) - c.samples)
        assert seg.sum() == pytest.approx(2 + 2 * math.pi * 0.5, rel=1e-3)

    def test_square_offset_perimeter(self):
        c = offset_contour(UNIT_SQUARE, 0.1, 400)
        d = distances(c.samples, UNIT_SQUARE)
        assert np.max(np.abs(d - 0.1)) < 1e-9
        seg = np.abs(np.roll(c.samples, -1) - c.samples)
        assert seg.sum() == pytest.approx(4 + 2 * math.pi * 0.1, rel=1e-4)

    def test_point_offset_is_circle(self):
        c = offset_contour(Segment(2j, 2j), 0.3, 32)
        assert np.max(np.abs(np.abs(c.samples - 2j) - 0.3)) < 1e-12

    def test_winds_once_counterclockwise(self):
        for region in (UNIT_DISK, UNIT_SEGMENT, UNIT_SQUARE):
            c = offset_contour(region, 0.4, 256)
            rel = c.samples - centroid(region)
            turns = np.angle(np.roll(rel, -1) / rel).sum() / (2 * math.pi)
            assert turns == pytest.approx(1.0, abs=1e-9)

    def test_spacing_respects_min_samples(self):
        c = offset_contour(UNIT_SQUARE, 0.25, 100)
        seg = np.abs(np.roll(c.samples, -1) - c.samples)
        perimeter = seg.sum()
        assert seg.max() <= perimeter / 100 + 1e-12

    def test_rejects_nonpositive_offset(self):
        with pytest.raises(ValueError):
            offset_contour(UNIT_DISK, 0.0, 16)


def _scalar_offset_contour(region, d, min_samples):
    """One sample at a time, as offset_contour built contours before it
    formed each piece as an array; kept as the reference."""
    pieces = _offset_pieces(region, d)
    lengths = [p[2] * p[4] if p[0] == "arc" else abs(p[2] - p[1])
               for p in pieces]
    h = sum(lengths) / min_samples
    samples = []
    for piece, length in zip(pieces, lengths):
        if length == 0:
            continue
        m = max(1, math.ceil(length / h - 1e-12))
        if piece[0] == "arc":
            _, center, radius, th0, sweep = piece
            for j in range(m):
                th = th0 + sweep * j / m
                samples.append(center + radius * complex(math.cos(th),
                                                         math.sin(th)))
        else:
            _, start, end = piece
            for j in range(m):
                samples.append(start + (end - start) * (j / m))
    return np.array(samples)


# offset_contour(region, d, 8) as recorded from the per-sample construction
RECORDED_CONTOURS = {
    "disk": (Disk(0.3 - 0.2j, 1.5), 0.4, [
        complex(2.1999999999999997, -0.2),
        complex(1.6435028842544404, 1.1435028842544401),
        complex(0.3000000000000001, 1.7),
        complex(-1.04350288425444, 1.1435028842544404),
        complex(-1.5999999999999999, -0.1999999999999998),
        complex(-1.0435028842544405, -1.54350288425444),
        complex(0.29999999999999966, -2.1),
        complex(1.64350288425444, -1.5435028842544405)]),
    "segment": (Segment(-1 + 0.5j, 2 - 1j), 0.3, [
        complex(-1.1341640786499874, 0.23167184270002528),
        complex(-0.38416407864998736, -0.14332815729997472),
        complex(0.36583592135001264, -0.5183281572999747),
        complex(1.1158359213500126, -0.8933281572999747),
        complex(1.8658359213500126, -1.2683281572999747),
        complex(2.134164078649987, -0.7316718427000253),
        complex(1.3841640786499871, -0.3566718427000253),
        complex(0.6341640786499871, 0.018328157299974723),
        complex(-0.11583592135001286, 0.3933281572999747),
        complex(-0.8658359213500126, 0.7683281572999747)]),
    "point_segment": (Segment(0.7j, 0.7j), 0.25, [
        complex(0.25, 0.7),
        complex(0.1767766952966369, 0.8767766952966368),
        complex(1.5308084989341915e-17, 0.95),
        complex(-0.17677669529663687, 0.8767766952966368),
        complex(-0.25, 0.7),
        complex(-0.17677669529663692, 0.5232233047033631),
        complex(-4.592425496802574e-17, 0.44999999999999996),
        complex(0.17677669529663684, 0.523223304703363)]),
    "square": (ConvexPolygon((0, 2, 2 + 2j, 2j)), 0.2, [
        complex(0.0, -0.2),
        complex(1.0, -0.2),
        complex(2.0, -0.2),
        complex(2.2, 0.0),
        complex(2.2, 1.0),
        complex(2.2, 2.0),
        complex(2.0, 2.2),
        complex(1.0, 2.2),
        complex(1.2246467991473533e-17, 2.2),
        complex(-0.2, 2.0),
        complex(-0.2, 1.0),
        complex(-0.2, 2.4492935982947065e-17)]),
}


class TestOffsetContourArrays:
    @pytest.mark.parametrize("name", sorted(RECORDED_CONTOURS))
    def test_matches_recorded_samples(self, name):
        region, d, recorded = RECORDED_CONTOURS[name]
        samples = offset_contour(region, d, 8).samples
        expected = np.array(recorded)
        assert samples.shape == expected.shape
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(samples - expected)) <= 1e-15 * scale

    @pytest.mark.parametrize("name", sorted(RECORDED_CONTOURS))
    @pytest.mark.parametrize("min_samples", [4, 100, 512, 1001])
    def test_matches_scalar_construction(self, name, min_samples):
        region, d, _ = RECORDED_CONTOURS[name]
        samples = offset_contour(region, d, min_samples).samples
        expected = _scalar_offset_contour(region, d, min_samples)
        assert samples.shape == expected.shape
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(samples - expected)) <= 1e-15 * scale


class TestConvexityAndScaling:
    @settings(max_examples=60, deadline=None)
    @given(finite_complex, finite_complex, regions,
           st.floats(0, 1, allow_nan=False))
    def test_distance_convex_along_segments(self, z1, z2, region, t):
        mid = t * z1 + (1 - t) * z2
        d1 = distance(z1, region)[0]
        d2 = distance(z2, region)[0]
        dm = distance(mid, region)[0]
        assert dm <= t * d1 + (1 - t) * d2 + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(finite_complex, regions,
           st.builds(complex, st.floats(-4, 4), st.floats(-4, 4)).filter(
               lambda c: abs(c) > 1e-3))
    def test_distance_scales(self, z, region, factor):
        d0 = distance(z, region)[0]
        d1 = distance(factor * z, scale_region(region, factor))[0]
        assert d1 == pytest.approx(abs(factor) * d0, rel=1e-9, abs=1e-9)


class TestPolygonValidation:
    def test_clockwise_rejected(self):
        with pytest.raises(ValueError):
            ConvexPolygon((0, 1j, 1 + 1j, 1))

    def test_collinear_rejected(self):
        with pytest.raises(ValueError):
            ConvexPolygon((0, 1, 2, 1j))

    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            ConvexPolygon((0, 1))

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            Disk(0, -1)


class TestHull:
    def test_triangle(self):
        hull = convex_hull_region([0, 1, 1j, 0.2 + 0.2j])
        assert isinstance(hull, ConvexPolygon)
        assert len(hull.vertices) == 3

    def test_collinear_collapses_to_segment(self):
        hull = convex_hull_region([0, 0.25, 0.5, 1.0])
        assert isinstance(hull, Segment)

    def test_single_point(self):
        hull = convex_hull_region([2 + 2j])
        assert isinstance(hull, Disk)
        assert hull.radius == 0

    def test_contains_inputs(self, rng):
        pts = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        hull = convex_hull_region(pts)
        assert np.max(distances(pts, hull)) <= 1e-9


def test_centroid_values():
    assert centroid(UNIT_DISK) == 0
    assert centroid(UNIT_SEGMENT) == 0.5
    assert centroid(ConvexPolygon((0, 2, 2 + 2j, 2j))) == pytest.approx(1 + 1j)


def test_sample_point_inside(rng):
    for region in (UNIT_DISK, UNIT_SEGMENT, UNIT_SQUARE):
        for _ in range(50):
            assert distance(sample_point(region, rng), region)[0] <= 1e-12
