"""Circuit-switched 2D mesh for braid routing.

Section 6.1: "the problem is reduced to simulating a mesh network, with
braids as messages in this network ... the tile corners are routers."
Braids claim every link of their route at once when opened and release
them all when closed; links have capacity one (braids cannot cross,
buffer, or share channels -- Section 4.1).

Routers are the corners of a ``rows x cols`` tile grid, i.e. a
``(rows+1) x (cols+1)`` node grid; the braid endpoint of tile (r, c) is
its top-left corner router (r, c).

Occupancy is a flat bitmask over integer link ids (horizontal links
first, then vertical), so the hot operations of the braid simulator --
"is this route free", "claim these links", "release everything this
braid holds", "how many links are busy" -- are single big-int AND/OR
operations and a popcount instead of per-link hash lookups.  The
object-level API (:meth:`claim` / :meth:`release` / :meth:`is_path_free`
over router paths) is preserved on top of the mask core.
"""

from __future__ import annotations

from typing import Hashable, Sequence

__all__ = ["Router", "Link", "BraidMesh", "path_links", "manhattan"]

Router = tuple[int, int]
Link = frozenset  # frozenset of two adjacent Router nodes
Owner = Hashable


def path_links(path: Sequence[Router]) -> list[Link]:
    """The links traversed by a router path.

    Raises:
        ValueError: If consecutive routers are not mesh neighbors.
    """
    links: list[Link] = []
    for a, b in zip(path, path[1:]):
        if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
            raise ValueError(f"path step {a} -> {b} is not a mesh hop")
        links.append(frozenset((a, b)))
    return links


def manhattan(a: Router, b: Router) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


class BraidMesh:
    """Link-occupancy state of the router grid.

    Tracks which braid (by owner token) holds each link and how many
    links are busy.  The braid simulator keeps this state in locals
    while it runs and hands it back through :meth:`set_occupancy`.

    Attributes:
        epoch: Monotone counter bumped every time links are released.
            A route search that failed at epoch ``e`` must fail again
            while the epoch is still ``e`` (claims only remove links
            from the free set), which is what lets the simulator skip
            repeated searches for blocked opens.
    """

    def __init__(self, rows: int, cols: int) -> None:
        if rows < 1 or cols < 1:
            raise ValueError(f"mesh needs >= 1x1 tiles, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.router_rows = rows + 1
        self.router_cols = cols + 1
        # Link ids: horizontal (r,c)-(r,c+1) -> r*cols' + c where
        # cols' = router_cols - 1; vertical (r,c)-(r+1,c) follow.
        self._num_h = self.router_rows * (self.router_cols - 1)
        self._occupied = 0  # bitmask over link ids
        self._owner_masks: dict[Owner, int] = {}
        self._busy = 0
        self.epoch = 0

    # -- topology ------------------------------------------------------------

    @property
    def num_links(self) -> int:
        horizontal = self.router_rows * (self.router_cols - 1)
        vertical = (self.router_rows - 1) * self.router_cols
        return horizontal + vertical

    def in_bounds(self, router: Router) -> bool:
        r, c = router
        return 0 <= r < self.router_rows and 0 <= c < self.router_cols

    def tile_router(self, tile: tuple[int, int]) -> Router:
        """Braid endpoint router of a tile (its top-left corner)."""
        r, c = tile
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise ValueError(f"tile {tile} outside {self.rows}x{self.cols} grid")
        return (r, c)

    # -- link ids and masks ----------------------------------------------------

    def link_id(self, a: Router, b: Router) -> int:
        """Integer id of the link between two adjacent routers."""
        ra, ca = a
        rb, cb = b
        if ra == rb:  # horizontal
            return ra * (self.router_cols - 1) + min(ca, cb)
        return self._num_h + min(ra, rb) * self.router_cols + ca

    def path_mask(self, path: Sequence[Router]) -> int:
        """Bitmask of the links a router path traverses.

        Raises:
            ValueError: If consecutive routers are not mesh neighbors.
        """
        mask = 0
        cols1 = self.router_cols - 1
        num_h = self._num_h
        router_cols = self.router_cols
        prev = None
        for node in path:
            if prev is not None:
                ra, ca = prev
                rb, cb = node
                if ra == rb:
                    if abs(ca - cb) != 1:
                        raise ValueError(
                            f"path step {prev} -> {node} is not a mesh hop"
                        )
                    mask |= 1 << (ra * cols1 + min(ca, cb))
                elif ca == cb and abs(ra - rb) == 1:
                    mask |= 1 << (num_h + min(ra, rb) * router_cols + ca)
                else:
                    raise ValueError(
                        f"path step {prev} -> {node} is not a mesh hop"
                    )
            prev = node
        return mask

    @property
    def occupied_mask(self) -> int:
        """Bitmask of currently claimed links."""
        return self._occupied

    # -- occupancy ------------------------------------------------------------

    def is_path_free(self, path: Sequence[Router]) -> bool:
        """True when every link on the path is unclaimed and in bounds."""
        if any(not self.in_bounds(r) for r in path):
            return False
        return self.path_mask(path) & self._occupied == 0

    def claim(self, path: Sequence[Router], owner: Owner) -> None:
        """Atomically claim all links of a route for ``owner``.

        Raises:
            ValueError: If any link is already claimed (claims must be
                checked with :meth:`is_path_free` first) or the owner
                already holds a route.
        """
        if owner in self._owner_masks:
            raise ValueError(f"owner {owner!r} already holds a route")
        mask = self.path_mask(path)
        if mask & self._occupied:
            for link in path_links(path):
                if self._occupied >> self.link_id(*link) & 1:
                    raise ValueError(f"link {set(link)} already claimed")
        self.claim_mask(mask, owner)

    def claim_mask(self, mask: int, owner: Owner) -> None:
        """Claim a precomputed link mask for ``owner`` (hot path).

        Raises:
            ValueError: On conflict with claimed links or an owner that
                already holds a route.
        """
        if mask & self._occupied:
            raise ValueError(f"mask conflicts with claimed links for {owner!r}")
        if mask:
            if owner in self._owner_masks:
                raise ValueError(f"owner {owner!r} already holds a route")
            self._owner_masks[owner] = mask
            self._occupied |= mask
            self._busy += mask.bit_count()

    def release(self, owner: Owner) -> int:
        """Release every link held by ``owner``; returns links freed."""
        mask = self._owner_masks.pop(owner, 0)
        if not mask:
            return 0
        self._occupied &= ~mask
        freed = mask.bit_count()
        self._busy -= freed
        self.epoch += 1
        return freed

    def busy_links(self) -> int:
        return self._busy

    def set_occupancy(self, occupied: int, epoch: int) -> None:
        """Take back the claimed-link mask and release counter that a
        braid simulation kept in locals while it ran.

        Owners registered before the run keep their entries; the
        run's own claims are all released by the time it hands back.
        """
        self._occupied = occupied
        self._busy = occupied.bit_count()
        self.epoch = epoch

    def __repr__(self) -> str:
        return (
            f"BraidMesh({self.rows}x{self.cols} tiles, "
            f"{self.busy_links()}/{self.num_links} links busy)"
        )
