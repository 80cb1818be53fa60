"""Tests for the braid mesh and route generation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import (
    BraidMesh,
    RouteTable,
    alternative_paths,
    dor_path,
    find_free_path,
    manhattan,
    path_links,
    route_table,
)


class TestMesh:
    def test_dimensions(self):
        mesh = BraidMesh(2, 3)
        assert mesh.router_rows == 3
        assert mesh.router_cols == 4
        # links: 3*3 horizontal + 2*4 vertical = 17
        assert mesh.num_links == 17

    def test_validation(self):
        with pytest.raises(ValueError):
            BraidMesh(0, 3)

    def test_tile_router(self):
        mesh = BraidMesh(2, 2)
        assert mesh.tile_router((1, 1)) == (1, 1)
        with pytest.raises(ValueError):
            mesh.tile_router((5, 0))

    def test_claim_release_cycle(self):
        mesh = BraidMesh(3, 3)
        path = [(0, 0), (0, 1), (0, 2)]
        assert mesh.is_path_free(path)
        mesh.claim(path, owner="b1")
        assert not mesh.is_path_free(path)
        assert mesh.busy_links() == 2
        assert mesh.release("b1") == 2
        assert mesh.is_path_free(path)

    def test_double_claim_rejected(self):
        mesh = BraidMesh(3, 3)
        mesh.claim([(0, 0), (0, 1)], owner="b1")
        with pytest.raises(ValueError, match="claimed"):
            mesh.claim([(0, 1), (0, 0)], owner="b2")

    def test_same_owner_double_claim_rejected(self):
        mesh = BraidMesh(3, 3)
        mesh.claim([(0, 0), (0, 1)], owner="b1")
        with pytest.raises(ValueError, match="already holds"):
            mesh.claim([(2, 0), (2, 1)], owner="b1")

    def test_overlapping_paths_conflict(self):
        mesh = BraidMesh(3, 3)
        mesh.claim([(0, 0), (0, 1), (1, 1)], owner="b1")
        assert not mesh.is_path_free([(0, 1), (1, 1), (2, 1)])
        assert mesh.is_path_free([(2, 0), (2, 1)])

    def test_path_links_validates_hops(self):
        with pytest.raises(ValueError, match="not a mesh hop"):
            path_links([(0, 0), (1, 1)])

    def test_out_of_bounds_path_not_free(self):
        mesh = BraidMesh(2, 2)
        assert not mesh.is_path_free([(0, 0), (0, -1)])


class TestRouting:
    def test_dor_is_x_first(self):
        path = dor_path((0, 0), (2, 2))
        assert path == [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2)]

    def test_dor_degenerate(self):
        assert dor_path((1, 1), (1, 1)) == [(1, 1)]
        assert dor_path((0, 0), (0, 2)) == [(0, 0), (0, 1), (0, 2)]

    def test_alternatives_start_with_dor(self):
        mesh = BraidMesh(4, 4)
        paths = list(alternative_paths(mesh, (0, 0), (2, 2)))
        assert paths[0] == dor_path((0, 0), (2, 2))
        assert len(paths) >= 2

    def test_alternatives_unique_and_valid(self):
        mesh = BraidMesh(4, 4)
        seen = set()
        for path in alternative_paths(mesh, (0, 0), (3, 3)):
            key = tuple(path)
            assert key not in seen
            seen.add(key)
            path_links(path)  # validates hops
            assert path[0] == (0, 0)
            assert path[-1] == (3, 3)
            assert all(mesh.in_bounds(r) for r in path)

    def test_find_free_path_picks_detour(self):
        mesh = BraidMesh(3, 3)
        # Block the DOR route from (0,0) to (0,3).
        mesh.claim([(0, 1), (0, 2)], owner="blocker")
        found = find_free_path(mesh, (0, 0), (0, 3), adaptive=True)
        assert found is not None
        assert frozenset(((0, 1), (0, 2))) not in set(path_links(found))

    def test_find_free_path_non_adaptive_fails_when_blocked(self):
        mesh = BraidMesh(3, 3)
        mesh.claim([(0, 1), (0, 2)], owner="blocker")
        assert find_free_path(mesh, (0, 0), (0, 3), adaptive=False) is None

    def test_fully_blocked_returns_none(self):
        mesh = BraidMesh(1, 1)
        mesh.claim([(0, 0), (0, 1), (1, 1)], owner="a")
        mesh.claim([(1, 0), (1, 1)], owner="b")
        # (0,0)->(1,1): remaining link (0,0)-(1,0) can't complete a path.
        assert find_free_path(mesh, (0, 0), (1, 1), adaptive=True) is None

    @given(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
    )
    @settings(max_examples=60)
    def test_dor_length_is_manhattan(self, src, dst):
        path = dor_path(src, dst)
        deduped = [p for i, p in enumerate(path) if i == 0 or p != path[i - 1]]
        assert len(deduped) - 1 == manhattan(src, dst)
        path_links(deduped)

    @given(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
    )
    @settings(max_examples=40)
    def test_alternatives_always_reach(self, src, dst):
        mesh = BraidMesh(4, 4)
        for path in alternative_paths(mesh, src, dst):
            assert path[0] == src
            assert path[-1] == dst


class TestRouteTableSharing:
    """One process-wide :class:`RouteTable` per mesh shape."""

    def test_hit_returns_same_instance(self):
        first = route_table(90, 90)
        assert route_table(90, 90) is first

    def test_miss_creates_new_table(self):
        a = route_table(91, 91)
        b = route_table(92, 92)
        assert a is not b
        assert isinstance(a, RouteTable) and isinstance(b, RouteTable)

    def test_detour_radius_is_part_of_the_key(self):
        narrow = route_table(93, 93, max_detour=2)
        wide = route_table(93, 93, max_detour=4)
        assert narrow is not wide
        assert (narrow.max_detour, wide.max_detour) == (2, 4)
        assert route_table(93, 93, max_detour=2) is narrow

    def test_every_shape_stays_shared(self):
        # A sweep touches a handful of shapes; none is ever dropped.
        tables = {cols: route_table(3, cols) for cols in range(1, 25)}
        for cols, table in tables.items():
            assert route_table(3, cols) is table
