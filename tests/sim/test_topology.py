"""Unit and property tests for the mesh topology and address mapping."""

from hypothesis import given, strategies as st

from repro.sim.config import SystemConfig
from repro.sim.topology import AddressMap, MeshTopology


def make_map(num_mcs=2, num_slices=8):
    config = SystemConfig.default_experiment(cores=8, num_mcs=num_mcs)
    return AddressMap(config, num_slices=num_slices), config


class TestAddressMap:
    def test_line_of_strips_offset(self):
        address_map, config = make_map()
        assert address_map.decode(0x7F) == address_map.decode(0x40)
        assert address_map.decode(0x80) != address_map.decode(0x40)

    def test_mc_and_slice_in_range(self):
        address_map, config = make_map()
        for addr in range(0, 1 << 16, 64):
            assert 0 <= address_map.mc_of(addr) < config.num_mcs
            assert 0 <= address_map.decode(addr)[0] < 8

    def test_mapping_is_deterministic(self):
        address_map, _ = make_map()
        assert address_map.mc_of(0x1234) == address_map.mc_of(0x1234)
        assert address_map.decode(0x1234) == address_map.decode(0x1234)

    def test_mc_hash_is_roughly_uniform(self):
        """The paper assumes a uniform address hash (Section III-C1)."""
        address_map, config = make_map(num_mcs=2)
        counts = [0] * config.num_mcs
        lines = 4096
        for i in range(lines):
            counts[address_map.mc_of(i * 64)] += 1
        for count in counts:
            assert abs(count - lines / config.num_mcs) < lines * 0.05

    def test_sequential_lines_spread_over_banks(self):
        address_map, config = make_map()
        banks = {address_map.decode(i * 64)[2] for i in range(256)}
        assert len(banks) == config.banks_per_mc

    def test_row_groups_lines(self):
        address_map, config = make_map()
        assert address_map.decode(0)[3] == 0
        # row index grows with address
        far = 1 << 30
        assert address_map.decode(far)[3] > 0


class TestMeshTopology:
    def test_tile_coordinates_cover_grid(self):
        config = SystemConfig.paper_32core()
        mesh = MeshTopology(config)
        coords = set(mesh._tile_coords)
        assert len(coords) == 32
        assert all(0 <= x < 8 and 0 <= y < 4 for x, y in coords)

    def test_mcs_on_left_right_edges(self):
        config = SystemConfig.paper_32core()
        mesh = MeshTopology(config)
        for mc_id in range(config.num_mcs):
            x, y = mesh._mc_coords[mc_id]
            assert x in (0, config.mesh_cols - 1)

    def test_mc_coords_distinct(self):
        config = SystemConfig.paper_32core()
        mesh = MeshTopology(config)
        coords = [mesh._mc_coords[m] for m in range(config.num_mcs)]
        assert len(set(coords)) == len(coords)

    def test_latency_is_base_plus_hops(self):
        config = SystemConfig.default_experiment(cores=8, num_mcs=2)
        mesh = MeshTopology(config)
        same = mesh._tile_tile_latency[0][0]
        assert same == config.noc_base_cycles
        neighbour = mesh._tile_tile_latency[0][1]
        assert neighbour == config.noc_base_cycles + config.noc_hop_cycles

    def test_shortest_path_equals_manhattan_on_full_mesh(self):
        config = SystemConfig.paper_32core()
        mesh = MeshTopology(config)
        for a in range(0, len(mesh._tile_coords), 5):
            for b in range(0, len(mesh._tile_coords), 7):
                ax, ay = mesh._tile_coords[a]
                bx, by = mesh._tile_coords[b]
                manhattan = abs(ax - bx) + abs(ay - by)
                assert mesh.hops(mesh._tile_coords[a], mesh._tile_coords[b]) == manhattan

    def test_tile_to_mc_latency_positive(self):
        config = SystemConfig.default_experiment(cores=8, num_mcs=2)
        mesh = MeshTopology(config)
        for tile in range(config.cores):
            for mc in range(config.num_mcs):
                assert mesh.tile_to_mc_latency(tile, mc) >= config.noc_base_cycles


@given(addr=st.integers(min_value=0, max_value=(1 << 48) - 1))
def test_property_mapping_total_and_stable(addr):
    address_map, config = make_map()
    mc = address_map.mc_of(addr)
    assert 0 <= mc < config.num_mcs
    assert address_map.mc_of(addr) == mc
    slice_id, decoded_mc, bank, row = address_map.decode(addr)
    assert 0 <= slice_id < 8
    assert decoded_mc == mc
    assert 0 <= bank < config.banks_per_mc
    assert row >= 0


class TestDenseLatencyTables:
    """The flattened tables must agree with networkx shortest paths."""

    MESHES = [
        dict(cores=4, mesh_cols=2, mesh_rows=2, num_mcs=1),
        dict(cores=8, mesh_cols=4, mesh_rows=2, num_mcs=2),
        dict(cores=16, mesh_cols=4, mesh_rows=4, num_mcs=4),
        dict(cores=32, mesh_cols=8, mesh_rows=4, num_mcs=4),
    ]

    def _reference_latency(self, mesh, config, src, dst):
        import networkx as nx

        graph = nx.grid_2d_graph(config.mesh_cols, config.mesh_rows)
        hops = nx.shortest_path_length(graph, src, dst)
        return config.noc_base_cycles + hops * config.noc_hop_cycles

    def test_tables_match_networkx_shortest_paths(self):
        for params in self.MESHES:
            config = SystemConfig(**params)
            mesh = MeshTopology(config)
            for src in range(len(mesh._tile_coords)):
                for dst in range(len(mesh._tile_coords)):
                    expected = self._reference_latency(
                        mesh, config, mesh._tile_coords[src], mesh._tile_coords[dst]
                    )
                    assert mesh._tile_tile_latency[src][dst] == expected
            for tile in range(len(mesh._tile_coords)):
                for mc in range(config.num_mcs):
                    expected = self._reference_latency(
                        mesh, config, mesh._tile_coords[tile], mesh._mc_coords[mc]
                    )
                    assert mesh.tile_to_mc_latency(tile, mc) == expected

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
    )
    def test_property_latency_equals_manhattan(self, cols, rows):
        """On a full grid the shortest path is the Manhattan distance."""
        config = SystemConfig(
            cores=cols * rows, mesh_cols=cols, mesh_rows=rows, num_mcs=1
        )
        mesh = MeshTopology(config)
        for src in range(len(mesh._tile_coords)):
            sx, sy = mesh._tile_coords[src]
            for dst in range(len(mesh._tile_coords)):
                dx, dy = mesh._tile_coords[dst]
                manhattan = abs(sx - dx) + abs(sy - dy)
                expected = config.noc_base_cycles + manhattan * config.noc_hop_cycles
                assert mesh._tile_tile_latency[src][dst] == expected
