"""Tests for RunSpec hashing and grid expansion."""

from repro.runner.spec import RunSpec, specs_for_figure


class TestSpecHash:
    def test_hash_is_stable_across_equivalent_spellings(self):
        a = RunSpec(figure="fig07", cell={"mixes": ("stream",)})
        b = RunSpec(figure="fig07", cell={"mixes": ["stream"]})
        assert a.spec_hash() == b.spec_hash()

    def test_hash_changes_with_every_field(self):
        base = RunSpec(figure="fig05", seed=0, quick=True)
        assert base.spec_hash() != RunSpec(figure="fig06").spec_hash()
        assert base.spec_hash() != RunSpec(figure="fig05", seed=1).spec_hash()
        assert base.spec_hash() != RunSpec(figure="fig05", quick=False).spec_hash()
        assert (
            base.spec_hash()
            != RunSpec(figure="fig05", cell={"workloads": ("mcf",)}).spec_hash()
        )

    def test_hash_independent_of_key_order(self):
        a = RunSpec(figure="fig07", cell={"a": 1, "b": 2})
        b = RunSpec(figure="fig07", cell={"b": 2, "a": 1})
        assert a.spec_hash() == b.spec_hash()

    def test_hash_changes_with_backend(self):
        """Backends are byte-identical by contract, but a determinism bug
        in the compiled core must surface as a report diff, never be
        papered over by a cache hit recorded under the other backend."""
        hashes = {
            RunSpec(figure="fig05", backend=backend).spec_hash()
            for backend in ("pure", "c")
        }
        assert len(hashes) == 2

    def test_backend_pinned_in_canonical_json(self):
        import json

        payload = json.loads(RunSpec(figure="fig05", backend="c").canonical_json())
        assert payload["backend"] == "c"

    def test_backend_payload_roundtrip(self):
        spec = RunSpec(figure="fig05", backend="c")
        again = RunSpec.from_payload(spec.to_payload())
        assert again.backend == "c"
        assert again.spec_hash() == spec.spec_hash()

    def test_payload_roundtrip(self):
        spec = RunSpec(
            figure="fig07",
            cell={"mixes": ("stream",), "mechanisms": ("pabst",)},
            seed=3,
            quick=False,
        )
        again = RunSpec.from_payload(spec.to_payload())
        assert again.spec_hash() == spec.spec_hash()

    def test_hash_is_pinned(self):
        """Cache keys do not move: the literal pins the canonical JSON and
        the SHA-256 behind it, whichever module supplies the digest."""
        spec = RunSpec(
            figure="arena",
            cell={"scenarios": ("readmix",), "mechanisms": ("pabst",)},
            seed=3,
        )
        assert spec.spec_hash() == "1b34db4968e93c4e"

    def test_hash_changes_with_cell_mechanism(self):
        """Arena cells carry the mechanism name in the cell, so two
        head-to-heads differing only in mechanism must never share a
        cache entry."""
        hashes = {
            RunSpec(
                figure="arena",
                cell={"scenarios": ("stream",), "mechanisms": (name,)},
            ).spec_hash()
            for name in ("pabst", "dpq", "perbank", "none")
        }
        assert len(hashes) == 4


class TestSpecsForFigure:
    def test_fig07_quick_grid_has_six_cells(self):
        specs = specs_for_figure("fig07", quick=True)
        assert len(specs) == 6
        assert len({spec.spec_hash() for spec in specs}) == 6

    def test_single_cell_figures(self):
        for figure in ("fig06", "fig08"):
            specs = specs_for_figure(figure, quick=True)
            assert len(specs) == 1
            assert specs[0].cell == {}

    def test_fig05_measurement_grid(self):
        """fig05 sweeps the measurement window and nothing else."""
        specs = specs_for_figure("fig05", quick=True)
        assert len(specs) == 9
        assert len({spec.spec_hash() for spec in specs}) == 9
        assert {tuple(spec.cell) for spec in specs} == {("measure_epochs",)}

    def test_every_figure_expands(self):
        from repro.cli import EXPERIMENTS

        for figure in EXPERIMENTS:
            specs = specs_for_figure(figure, quick=True)
            assert specs, figure
            assert all(spec.figure == figure for spec in specs)

    def test_label_is_compact(self):
        spec = specs_for_figure("fig10", quick=True)[0]
        assert spec.label() == "fig10[libquantum]"
