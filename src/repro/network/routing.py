"""Route generation: dimension-ordered with adaptive alternatives.

Section 6.1: "we add route adaptivity to a dimension-ordered route and a
drop/re-inject mechanism, both after certain timeouts."  The canonical
route is XY (column-first here); adaptive search widens to YX and to
staircase detours through intermediate rows/columns.

Routes are placement-static: for a fixed mesh shape and detour radius,
the candidate list for a ``(src, dst)`` pair never changes -- only which
candidate is *free* does.  :class:`RouteTable` therefore memoizes every
pair's dimension-ordered route and full candidate list together with
their precomputed link masks, so the simulator's route search reduces to
``mask & occupied`` tests over a cached list instead of regenerating
paths on every attempt.
"""

from __future__ import annotations

from typing import Iterator

from .mesh import BraidMesh, Router

__all__ = [
    "dor_path",
    "alternative_paths",
    "find_free_path",
    "RouteTable",
    "route_table",
]


def _straight(start: int, end: int) -> list[int]:
    step = 1 if end >= start else -1
    return list(range(start, end + step, step)) if start != end else [start]


def dor_path(src: Router, dst: Router) -> list[Router]:
    """Dimension-ordered (X-then-Y) route: move along the row first."""
    path: list[Router] = []
    r0, c0 = src
    r1, c1 = dst
    for c in _straight(c0, c1):
        path.append((r0, c))
    for r in _straight(r0, r1)[1:]:
        path.append((r, c1))
    return path


def _yx_path(src: Router, dst: Router) -> list[Router]:
    r0, c0 = src
    r1, c1 = dst
    path: list[Router] = [(r, c0) for r in _straight(r0, r1)]
    path.extend((r1, c) for c in _straight(c0, c1)[1:])
    return path


def _staircase(src: Router, dst: Router, via_row: int) -> list[Router]:
    """Detour: go to ``via_row`` in the source column, across, then down."""
    r0, c0 = src
    r1, c1 = dst
    path: list[Router] = [(r, c0) for r in _straight(r0, via_row)]
    path.extend((via_row, c) for c in _straight(c0, c1)[1:])
    path.extend((r, c1) for r in _straight(via_row, r1)[1:])
    return path


def _staircase_col(src: Router, dst: Router, via_col: int) -> list[Router]:
    """Detour through an intermediate column (transpose of _staircase)."""
    r0, c0 = src
    r1, c1 = dst
    path: list[Router] = [(r0, c) for c in _straight(c0, via_col)]
    path.extend((r, via_col) for r in _straight(r0, r1)[1:])
    path.extend((r1, c) for c in _straight(via_col, c1)[1:])
    return path


def _dedupe(path: list[Router]) -> list[Router]:
    out: list[Router] = []
    for node in path:
        if not out or out[-1] != node:
            out.append(node)
    return out


def alternative_paths(
    mesh: BraidMesh, src: Router, dst: Router, max_detour: int = 4
) -> Iterator[list[Router]]:
    """Candidate routes in preference order (deterministic).

    Yields the XY route, the YX route, then staircase detours through
    rows increasingly far from the endpoints.  All candidates are simple
    L/Z-shaped paths -- the same family a circuit-switched braid router
    can realize cheaply.
    """
    if src == dst:
        yield [src]
        return
    seen: set[tuple[Router, ...]] = set()
    candidates: list[list[Router]] = [dor_path(src, dst), _yx_path(src, dst)]
    row_low, row_high = min(src[0], dst[0]), max(src[0], dst[0])
    col_low, col_high = min(src[1], dst[1]), max(src[1], dst[1])
    # Interior staircases between the endpoints (minimal length).
    for via_row in range(row_low + 1, row_high):
        candidates.append(_staircase(src, dst, via_row))
    for via_col in range(col_low + 1, col_high):
        candidates.append(_staircase_col(src, dst, via_col))
    # Exterior detours, increasingly far outside the bounding box.
    for offset in range(1, max_detour + 1):
        for via_row in (row_low - offset, row_high + offset):
            if 0 <= via_row < mesh.router_rows:
                candidates.append(_staircase(src, dst, via_row))
        for via_col in (col_low - offset, col_high + offset):
            if 0 <= via_col < mesh.router_cols:
                candidates.append(_staircase_col(src, dst, via_col))
    for candidate in candidates:
        cleaned = tuple(_dedupe(candidate))
        if cleaned not in seen:
            seen.add(cleaned)
            yield list(cleaned)


def find_free_path(
    mesh: BraidMesh,
    src: Router,
    dst: Router,
    adaptive: bool,
    max_detour: int = 4,
) -> list[Router] | None:
    """First available route, or None if all candidates are blocked.

    With ``adaptive=False`` only the dimension-ordered route is tried
    (the pre-timeout behavior of Section 6.1).
    """
    if not adaptive:
        path = _dedupe(dor_path(src, dst))
        return path if mesh.is_path_free(path) else None
    for path in alternative_paths(mesh, src, dst, max_detour):
        if mesh.is_path_free(path):
            return path
    return None


class RouteTable:
    """Memoized routes + link masks for one mesh shape and detour radius.

    Candidate order is exactly :func:`alternative_paths`' order, so a
    scan over :meth:`alternatives` stopping at the first free mask picks
    the same route :func:`find_free_path` would.  Masks depend only on
    the mesh *shape* (the link-id scheme), so one table serves every
    mesh -- and every policy's simulation -- of the same dimensions.
    """

    def __init__(self, rows: int, cols: int, max_detour: int = 4) -> None:
        self.rows = rows
        self.cols = cols
        self.max_detour = max_detour
        self._shape_mesh = BraidMesh(rows, cols)
        self._dor: dict[
            tuple[Router, Router], tuple[tuple[Router, ...], int]
        ] = {}
        self._alts: dict[
            tuple[Router, Router], tuple[tuple[tuple[Router, ...], int], ...]
        ] = {}

    def dor(self, src: Router, dst: Router) -> tuple[tuple[Router, ...], int]:
        """Deduped dimension-ordered route and its link mask."""
        key = (src, dst)
        entry = self._dor.get(key)
        if entry is None:
            path = tuple(_dedupe(dor_path(src, dst)))
            entry = (path, self._shape_mesh.path_mask(path))
            self._dor[key] = entry
        return entry

    def alternatives(
        self, src: Router, dst: Router
    ) -> tuple[tuple[tuple[Router, ...], int], ...]:
        """All candidate routes (DOR first) with precomputed masks."""
        key = (src, dst)
        entry = self._alts.get(key)
        if entry is None:
            mesh = self._shape_mesh
            entry = tuple(
                (tuple(path), mesh.path_mask(path))
                for path in alternative_paths(
                    mesh, src, dst, self.max_detour
                )
            )
            self._alts[key] = entry
        return entry


_ROUTE_TABLES: dict[tuple[int, int, int], RouteTable] = {}


def route_table(rows: int, cols: int, max_detour: int = 4) -> RouteTable:
    """Process-wide :class:`RouteTable` for a mesh shape.

    Tables are shared across simulations and plans: every plan of one
    machine shape (both layouts, every distance) binds its routes from
    one table.  A sweep touches a handful of shapes.
    """
    key = (rows, cols, max_detour)
    table = _ROUTE_TABLES.get(key)
    if table is None:
        table = _ROUTE_TABLES[key] = RouteTable(rows, cols, max_detour)
    return table
