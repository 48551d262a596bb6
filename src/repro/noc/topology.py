"""Network-on-chip topologies.

A topology describes routers, the directed channels between them, and the
mapping of *nodes* (terminals: cores, cache banks, memory controllers) onto
routers.  Routers expose numbered ports; port 0 is always the local
injection/ejection port and ports 1..radix-1 are direction ports.

All topologies here are two-dimensional grids because that is what the paper
targets (mesh NoCs for 64-512 core CMPs), but the :class:`Topology` interface
is what the simulators program against, so other shapes can be added without
touching router or network code.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

from ..errors import ConfigError, TopologyError

if TYPE_CHECKING:
    import networkx

__all__ = [
    "LOCAL",
    "EAST",
    "WEST",
    "NORTH",
    "SOUTH",
    "PORT_NAMES",
    "opposite_port",
    "port_dimension",
    "Topology",
    "Mesh",
    "Torus",
    "ConcentratedMesh",
]

#: Port indices shared by all 2-D grid topologies.
LOCAL, EAST, WEST, NORTH, SOUTH = 0, 1, 2, 3, 4

PORT_NAMES = {LOCAL: "local", EAST: "east", WEST: "west", NORTH: "north", SOUTH: "south"}

_OPPOSITE = {EAST: WEST, WEST: EAST, NORTH: SOUTH, SOUTH: NORTH}

#: dimension index (0 = X, 1 = Y) each direction port travels in
_PORT_DIM = {EAST: 0, WEST: 0, NORTH: 1, SOUTH: 1}


def opposite_port(port: int) -> int:
    """Return the port a channel arrives on at the neighbour router."""
    try:
        return _OPPOSITE[port]
    except KeyError:
        raise TopologyError(f"port {port} has no opposite (is it LOCAL?)") from None


def port_dimension(port: int) -> int:
    """The grid dimension a direction port travels in (0 = X, 1 = Y).

    Dateline virtual-channel classes are tracked per dimension, so both the
    router (choosing an output VC) and the static deadlock verifier need to
    map ports onto ring dimensions.
    """
    try:
        return _PORT_DIM[port]
    except KeyError:
        raise TopologyError(f"port {port} has no dimension (is it LOCAL?)") from None


class Topology:
    """Base class for 2-D grid topologies.

    Subclasses define wrap-around behaviour via :meth:`neighbor`.  The base
    class provides coordinate arithmetic, node↔router mapping (identity by
    default, overridden by :class:`ConcentratedMesh`), and export to a
    :mod:`networkx` graph for analysis and tests.
    """

    #: number of ports per router, including the local port
    radix = 5

    def __init__(self, width: int, height: int, concentration: int = 1) -> None:
        if width < 1 or height < 1:
            raise ConfigError(f"topology dimensions must be >= 1, got {width}x{height}")
        if concentration < 1:
            raise ConfigError(f"concentration must be >= 1, got {concentration}")
        self.width = width
        self.height = height
        self.concentration = concentration
        # Geometry tables: what the per-message lookups below index instead
        # of re-deriving (and re-validating) it every time.  O(N) here; the
        # router-pair hop rows are filled on first use, one byte per pair.
        routers = range(width * height)
        self._coords = tuple((r % width, r // width) for r in routers)
        self._node_routers = tuple(
            n // concentration for n in range(len(routers) * concentration)
        )
        self._hop_rows: List[Optional[array]] = [None] * len(routers)
        self._hop_code = "B" if width + height <= 257 else "H"

    # ------------------------------------------------------------------
    # Router geometry
    # ------------------------------------------------------------------
    @property
    def num_routers(self) -> int:
        return self.width * self.height

    @property
    def num_nodes(self) -> int:
        return self.num_routers * self.concentration

    def coords(self, router: int) -> Tuple[int, int]:
        """(x, y) coordinates of ``router``; x grows east, y grows north."""
        if 0 <= router < len(self._coords):
            return self._coords[router]
        raise TopologyError(f"router {router} outside [0, {self.num_routers})")

    def router_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise TopologyError(f"({x}, {y}) outside {self.width}x{self.height} grid")
        return y * self.width + x

    def routers(self) -> Iterator[int]:
        return iter(range(self.num_routers))

    # ------------------------------------------------------------------
    # Node <-> router mapping
    # ------------------------------------------------------------------
    def node_router(self, node: int) -> int:
        """The router a terminal node attaches to."""
        if 0 <= node < len(self._node_routers):
            return self._node_routers[node]
        raise TopologyError(f"node {node} outside [0, {self.num_nodes})")

    def router_nodes(self, router: int) -> range:
        """All nodes attached to ``router``."""
        self._check_router(router)
        c = self.concentration
        return range(router * c, (router + 1) * c)

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    def neighbor(self, router: int, port: int) -> Optional[int]:
        """Router on the far end of ``port``, or ``None`` for edge/local ports."""
        raise NotImplementedError

    def is_wrap_channel(self, router: int, port: int) -> bool:
        """True when the channel out of ``port`` crosses a dateline.

        Wrap-around channels are where torus rings close; packets crossing
        one switch to the upper dateline half of the VC space (see
        :mod:`repro.noc.vcalloc`).  Meshes have no wrap channels.
        """
        return False

    def hop_distance(self, src_router: int, dst_router: int) -> int:
        """Minimal hop count between two routers (read from their hop row)."""
        self._check_router(src_router)
        self._check_router(dst_router)
        row = self._hop_rows[src_router]
        if row is None:
            row = self._fill_hop_row(src_router)
        return row[dst_router]

    def node_distance(self, src_node: int, dst_node: int) -> int:
        """Minimal router-hop count between the routers of two nodes."""
        routers = self._node_routers
        if 0 <= src_node < len(routers) and 0 <= dst_node < len(routers):
            src = routers[src_node]
            row = self._hop_rows[src]
            if row is None:
                row = self._fill_hop_row(src)
            return row[routers[dst_node]]
        raise TopologyError(
            f"node pair ({src_node}, {dst_node}) outside [0, {self.num_nodes})"
        )

    def _fill_hop_row(self, router: int) -> array:
        """Hop counts from ``router`` to every router, from :meth:`_hop_counts`."""
        row = self._hop_rows[router] = array(self._hop_code, self._hop_counts(router))
        return row

    def _hop_counts(self, router: int) -> List[int]:
        """Minimal hop count from ``router`` to every router, in router order.

        The one definition of distance per topology class: a comprehension
        over :attr:`_coords`, which :meth:`hop_distance` and
        :meth:`node_distance` both read through the hop rows.
        """
        raise NotImplementedError

    def to_networkx(self) -> "networkx.DiGraph":
        """Directed router graph; edges carry the outgoing port index.

        :mod:`networkx` is imported here, not at module level: it is a
        third of the simulation stack's import time and only analysis
        and tests want the graph (it ships in the ``test`` extra).
        """
        import networkx

        graph = networkx.DiGraph()
        graph.add_nodes_from(self.routers())
        for router in self.routers():
            for port in range(1, self.radix):
                nbr = self.neighbor(router, port)
                if nbr is not None:
                    graph.add_edge(router, nbr, port=port)
        return graph

    # ------------------------------------------------------------------
    def _check_router(self, router: int) -> None:
        if not 0 <= router < self.num_routers:
            raise TopologyError(f"router {router} outside [0, {self.num_routers})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}({self.width}x{self.height}, "
            f"concentration={self.concentration})"
        )


class Mesh(Topology):
    """2-D mesh: no wrap-around channels; corner routers have degree 2."""

    def neighbor(self, router: int, port: int) -> Optional[int]:
        x, y = self.coords(router)
        if port == LOCAL:
            return None
        if port == EAST:
            return self.router_at(x + 1, y) if x + 1 < self.width else None
        if port == WEST:
            return self.router_at(x - 1, y) if x - 1 >= 0 else None
        if port == NORTH:
            return self.router_at(x, y + 1) if y + 1 < self.height else None
        if port == SOUTH:
            return self.router_at(x, y - 1) if y - 1 >= 0 else None
        raise TopologyError(f"mesh has no port {port}")

    def _hop_counts(self, router: int) -> List[int]:
        sx, sy = self._coords[router]
        return [abs(sx - x) + abs(sy - y) for x, y in self._coords]


class Torus(Topology):
    """2-D torus: every dimension wraps, so all routers have full degree."""

    def neighbor(self, router: int, port: int) -> Optional[int]:
        x, y = self.coords(router)
        if port == LOCAL:
            return None
        if port == EAST:
            return self.router_at((x + 1) % self.width, y)
        if port == WEST:
            return self.router_at((x - 1) % self.width, y)
        if port == NORTH:
            return self.router_at(x, (y + 1) % self.height)
        if port == SOUTH:
            return self.router_at(x, (y - 1) % self.height)
        raise TopologyError(f"torus has no port {port}")

    def _hop_counts(self, router: int) -> List[int]:
        sx, sy = self._coords[router]
        w, h = self.width, self.height
        return [
            min(abs(sx - x), w - abs(sx - x)) + min(abs(sy - y), h - abs(sy - y))
            for x, y in self._coords
        ]

    def is_wrap_channel(self, router: int, port: int) -> bool:
        x, y = self.coords(router)
        if port == EAST:
            return x == self.width - 1
        if port == WEST:
            return x == 0
        if port == NORTH:
            return y == self.height - 1
        if port == SOUTH:
            return y == 0
        return False


class ConcentratedMesh(Mesh):
    """Mesh with ``concentration`` terminals multiplexed onto each router.

    Concentration shrinks the router grid for a given core count — the usual
    way large-core-count targets (256, 512) keep network diameter manageable.
    The local port is shared: all attached nodes inject and eject through it,
    which the network models as extra serialization at port 0.
    """

    def __init__(self, width: int, height: int, concentration: int = 4) -> None:
        if concentration < 2:
            raise ConfigError(
                "ConcentratedMesh needs concentration >= 2; use Mesh for 1"
            )
        super().__init__(width, height, concentration)
