"""Tiled SoC topology and physical address mapping.

The paper's baseline is an 8x4 tiled SoC: every tile holds a CPU, private
caches, and one slice of the shared L3; memory controllers sit on the mesh
edges.  The interconnect is modelled as latency only (hop count times per-hop
cycles) because the paper explicitly assumes NoC bandwidth is provisioned for
peak memory throughput.

Addresses are hashed uniformly across L3 slices and memory controllers, the
paper's stated assumption for keeping the global wired-OR SAT signal
meaningful (Section III-C1).  The hash is two multiplies, so it is computed
on every decode rather than remembered: a per-line memo would grow with
every line a run touches and, on streaming workloads, never hit.

Hop distances on the full mesh are Manhattan distances, computed once at
construction and flattened into dense integer latency tables, so the
per-request path is two list indexes.  ``repro lint`` rule PERF001 keeps
graph libraries (networkx) out of the package: they cost start-up time
and a closed form needs none.
"""

from __future__ import annotations

from repro.sim.config import SystemConfig

__all__ = ["AddressMap", "MeshTopology"]


_MASK64 = (1 << 64) - 1
_MC_SALT = 0x9E3779B97F4A7C15


class AddressMap:
    """Maps a physical address to its L3 slice, MC, bank, and DRAM row.

    :meth:`decode` is the one per-line entry point.  It computes the
    route on every call and keeps nothing per line, so the map's memory
    is fixed by the machine it models, not by the lines a run touches.
    """

    def __init__(self, config: SystemConfig, num_slices: int) -> None:
        self._line_shift = config.line_bytes.bit_length() - 1
        self._num_mcs = config.num_mcs
        self._banks = config.banks_per_mc
        self._row_lines = config.num_mcs * config.banks_per_mc * config.lines_per_row
        self._num_slices = max(1, num_slices)
        self._hash_mcs = config.mc_interleave == "hash"

    @property
    def num_mcs(self) -> int:
        return self._num_mcs

    def decode(self, addr: int) -> tuple[int, int, int, int]:
        """``(slice, mc, bank, row)`` of the line holding ``addr``.

        The slice (and, with the ``hash`` interleave, the MC) is a
        xorshift-multiply mix of the line number, a uniform hash as the
        paper assumes (Section III-C1); the mixes are inlined because
        every L2 miss and every writeback decodes once.
        """
        line = addr >> self._line_shift
        mix = line & _MASK64
        mix ^= mix >> 33
        mix = (mix * 0xFF51AFD7ED558CCD) & _MASK64
        slice_id = (mix ^ (mix >> 33)) % self._num_slices
        num_mcs = self._num_mcs
        if self._hash_mcs:
            mix = (line ^ _MC_SALT) & _MASK64
            mix ^= mix >> 33
            mix = (mix * 0xFF51AFD7ED558CCD) & _MASK64
            mc = ((mix ^ (mix >> 33)) >> 8) % num_mcs
        else:
            mc = line % num_mcs
        return slice_id, mc, (line // num_mcs) % self._banks, line // self._row_lines

    def mc_of(self, addr: int) -> int:
        """Memory controller index.

        Uniform hash by default (the paper's assumption); with the
        ``low-bits`` interleave a strided access pattern can concentrate
        on one controller, the scenario where the global wired-OR SAT
        signal over-throttles and per-controller governors help.
        """
        return self.decode(addr)[1]


class MeshTopology:
    """2D mesh of tiles with memory controllers on the left/right edges.

    Provides hop distances used to compute interconnect latency.  Every
    tile and MC sits on a full ``cols x rows`` grid, so the shortest path
    between two of them is the Manhattan distance ``|dx| + |dy|`` (the
    tests check this against a graph-search oracle).  All pairwise
    latencies are flattened into dense integer tables in ``__init__``.
    """

    def __init__(self, config: SystemConfig) -> None:
        self._cols = config.mesh_cols
        self._rows = config.mesh_rows
        self._hop_cycles = config.noc_hop_cycles
        self._base_cycles = config.noc_base_cycles
        self._tile_coords = [
            (index % self._cols, index // self._cols)
            for index in range(self._cols * self._rows)
        ]
        self._mc_coords = self._place_mcs(config.num_mcs)
        # Dense latency tables: [src][dst] indexing, plain ints.
        base = self._base_cycles
        hop = self._hop_cycles
        self._tile_tile_latency: list[list[int]] = [
            [base + self.hops(src, dst) * hop for dst in self._tile_coords]
            for src in self._tile_coords
        ]
        self._tile_mc_latency: list[list[int]] = [
            [base + self.hops(src, mc) * hop for mc in self._mc_coords]
            for src in self._tile_coords
        ]

    def _place_mcs(self, num_mcs: int) -> list[tuple[int, int]]:
        """Spread MCs across the left and right mesh edges (paper Fig. 2)."""
        coords: list[tuple[int, int]] = []
        for index in range(num_mcs):
            side = index % 2
            slot = index // 2
            col = 0 if side == 0 else self._cols - 1
            row = (slot * max(1, self._rows // max(1, (num_mcs + 1) // 2))) % self._rows
            coord = (col, row)
            # avoid stacking two controllers on the same tile when possible
            attempts = 0
            while coord in coords and attempts < self._rows:
                coord = (col, (coord[1] + 1) % self._rows)
                attempts += 1
            coords.append(coord)
        return coords

    @staticmethod
    def hops(src: tuple[int, int], dst: tuple[int, int]) -> int:
        """Shortest-path hop count between two grid coordinates."""
        return abs(src[0] - dst[0]) + abs(src[1] - dst[1])

    def fused_route_tables(
        self, l3_latency: int
    ) -> tuple[list[list[int]], list[list[list[int]]]]:
        """Cumulative route delays for the fused L2-miss fast paths.

        ``hit[core][slice]`` is the whole L3-hit round trip (core ->
        slice -> core plus the L3 access); ``miss[core][slice][mc]`` the
        whole L3-miss delivery leg (core -> slice -> MC plus the L3
        lookup).  Materializing the sums keeps the per-request path to a
        couple of list indexes with no arithmetic — the hop chain has no
        arbitration point, so the cumulative latency is fixed at issue.
        """
        hit = [
            [2 * to_slice + l3_latency for to_slice in row]
            for row in self._tile_tile_latency
        ]
        miss = [
            [
                [
                    to_slice + l3_latency + mc_latency
                    for mc_latency in self._tile_mc_latency[slice_tile]
                ]
                for slice_tile, to_slice in enumerate(row)
            ]
            for row in self._tile_tile_latency
        ]
        return hit, miss

    def tile_to_mc_latency(self, tile: int, mc_id: int) -> int:
        """One-way NoC latency from a tile to a memory controller."""
        return self._tile_mc_latency[tile][mc_id]
