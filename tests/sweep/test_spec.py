"""SweepSpec construction, cell enumeration, and validation."""

import pytest

from repro.sweep import SweepSpec, replicate_seeds


class TestGrid:
    def test_cartesian_product_last_axis_fastest(self, tiny_base):
        spec = SweepSpec.grid(
            tiny_base,
            {"baseline_days": [3, 7], "include_nl": [False, True]},
        )
        assert spec.n_points == 4
        assert spec.points[0] == (
            ("baseline_days", 3), ("include_nl", False)
        )
        assert spec.points[1] == (
            ("baseline_days", 3), ("include_nl", True)
        )
        assert spec.points[2] == (
            ("baseline_days", 7), ("include_nl", False)
        )

    def test_empty_axes_is_single_point(self, tiny_base):
        spec = SweepSpec.grid(tiny_base, {})
        assert spec.n_points == 1
        assert spec.points == ((),)

    def test_empty_axis_rejected(self, tiny_base):
        with pytest.raises(ValueError, match="no values"):
            SweepSpec.grid(tiny_base, {"baseline_days": []})

    def test_unknown_field_rejected(self, tiny_base):
        with pytest.raises(ValueError, match="unknown ScenarioConfig"):
            SweepSpec.grid(tiny_base, {"not_a_field": [1]})

    def test_seed_axis_rejected(self, tiny_base):
        with pytest.raises(ValueError, match="may not override 'seed'"):
            SweepSpec.grid(tiny_base, {"seed": [1, 2]})

    def test_invalid_point_rejected_at_build(self, tiny_base):
        """A point whose config cannot be built fails the spec, not
        each of its cells when the sweep runs them."""
        with pytest.raises(ValueError, match="does not tile"):
            SweepSpec.grid(tiny_base, {"window_seconds": [10_800, 10_860]})
        with pytest.raises(ValueError, match="does not tile"):
            SweepSpec(base=tiny_base, points=(
                (("window_seconds", 10_860),),
            ), seeds=(1, 2))


class TestCells:
    def test_seeds_outermost_indexing(self, tiny_base):
        spec = SweepSpec.grid(
            tiny_base, {"baseline_days": [3, 7]}, replicates=3
        )
        assert spec.n_cells == 6
        cells = spec.cells()
        for cell in cells:
            assert cell.index == (
                cell.seed_index * spec.n_points + cell.point_index
            )
            assert cells[cell.index] is not None
        # Contiguous pairs share a seed (cache locality).
        assert cells[0].config.seed == cells[1].config.seed
        assert cells[2].config.seed == cells[3].config.seed
        assert cells[0].config.seed != cells[2].config.seed

    def test_cell_config_applies_overrides(self, tiny_base):
        spec = SweepSpec.grid(tiny_base, {"baseline_days": [3, 7]})
        assert spec.cell(0).config.baseline_days == 3
        assert spec.cell(1).config.baseline_days == 7
        assert spec.cell(0).config.n_stubs == tiny_base.n_stubs

    def test_cell_index_out_of_range(self, tiny_base):
        spec = SweepSpec.grid(tiny_base, {})
        with pytest.raises(IndexError):
            spec.cell(1)
        with pytest.raises(IndexError):
            spec.cell(-1)

    def test_no_seeds_means_base_seed(self, tiny_base):
        spec = SweepSpec.grid(tiny_base, {})
        assert spec.effective_seeds() == (tiny_base.seed,)
        assert spec.cell(0).config == tiny_base

    def test_explicit_seeds(self, tiny_base):
        spec = SweepSpec.grid(tiny_base, {}, seeds=[11, 13])
        assert [c.config.seed for c in spec.cells()] == [11, 13]

    def test_seeds_and_replicates_exclusive(self, tiny_base):
        with pytest.raises(ValueError, match="not both"):
            SweepSpec.grid(tiny_base, {}, seeds=[1], replicates=2)

    def test_duplicate_seeds_rejected(self, tiny_base):
        with pytest.raises(ValueError, match="duplicate"):
            SweepSpec.grid(tiny_base, {}, seeds=[5, 5])

    def test_label_names_seed_and_overrides(self, tiny_base):
        spec = SweepSpec.grid(tiny_base, {"baseline_days": [3]})
        label = spec.cell(0).label
        assert "seed=7" in label
        assert "baseline_days=3" in label


class TestReplicateSeeds:
    def test_deterministic_and_distinct(self):
        first = replicate_seeds(42, 16)
        assert first == replicate_seeds(42, 16)
        assert len(set(first)) == 16

    def test_prefix_stable(self):
        # Adding replicates never reshuffles earlier ones.
        assert replicate_seeds(42, 16)[:4] == replicate_seeds(42, 4)

    def test_different_base_different_streams(self):
        assert replicate_seeds(1, 4) != replicate_seeds(2, 4)

    def test_zero_replicates_rejected(self):
        with pytest.raises(ValueError):
            replicate_seeds(42, 0)
