"""Unit tests for the uniform, two-layer and multi-layer soil models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SoilModelError
from repro.soil.multilayer import MultiLayerSoil
from repro.soil.two_layer import TwoLayerSoil
from repro.soil.uniform import UniformSoil

conductivity = st.floats(min_value=1e-4, max_value=1.0, allow_nan=False, allow_infinity=False)
thickness = st.floats(min_value=0.1, max_value=50.0, allow_nan=False, allow_infinity=False)


class TestUniformSoil:
    def test_basic_properties(self):
        soil = UniformSoil(0.016)
        assert soil.n_layers == 1
        assert soil.is_uniform
        assert soil.conductivity == pytest.approx(0.016)
        assert soil.resistivity == pytest.approx(62.5)
        assert soil.interface_depths() == ()
        assert soil.thicknesses == ()

    def test_from_resistivity(self):
        soil = UniformSoil.from_resistivity(100.0)
        assert soil.conductivity == pytest.approx(0.01)

    def test_from_resistivity_rejects_non_positive(self):
        with pytest.raises(SoilModelError):
            UniformSoil.from_resistivity(0.0)

    def test_rejects_non_positive_conductivity(self):
        with pytest.raises(SoilModelError):
            UniformSoil(0.0)
        with pytest.raises(SoilModelError):
            UniformSoil(-0.1)

    def test_layer_index_everywhere_one(self):
        soil = UniformSoil(0.01)
        assert soil.layer_index(0.0) == 1
        assert soil.layer_index(1000.0) == 1

    def test_layer_index_rejects_negative_depth(self):
        with pytest.raises(SoilModelError):
            UniformSoil(0.01).layer_index(-0.1)

    def test_layer_bounds(self):
        soil = UniformSoil(0.01)
        assert soil.layer_bounds(1) == (0.0, float("inf"))
        with pytest.raises(SoilModelError):
            soil.layer_bounds(2)

    def test_equality_and_hash(self):
        assert UniformSoil(0.01) == UniformSoil(0.01)
        assert UniformSoil(0.01) != UniformSoil(0.02)
        assert hash(UniformSoil(0.01)) == hash(UniformSoil(0.01))

    def test_describe_and_to_dict(self):
        soil = UniformSoil(0.02)
        assert "γ=0.02" in soil.describe()
        payload = soil.to_dict()
        assert payload["conductivities"] == [0.02]


class TestTwoLayerSoil:
    def test_basic_properties(self):
        soil = TwoLayerSoil(0.005, 0.016, 1.0)
        assert soil.n_layers == 2
        assert not soil.is_uniform
        assert soil.upper_conductivity == pytest.approx(0.005)
        assert soil.lower_conductivity == pytest.approx(0.016)
        assert soil.upper_thickness == pytest.approx(1.0)
        assert soil.interface_depths() == (1.0,)

    def test_kappa_matches_paper_definition(self):
        soil = TwoLayerSoil(0.005, 0.016, 1.0)
        assert soil.kappa == pytest.approx((0.005 - 0.016) / (0.005 + 0.016))

    def test_kappa_bounds(self):
        assert abs(TwoLayerSoil(1.0, 1e-4, 1.0).kappa) < 1.0
        assert abs(TwoLayerSoil(1e-4, 1.0, 1.0).kappa) < 1.0

    def test_equal_layers_have_zero_kappa(self):
        assert TwoLayerSoil(0.01, 0.01, 2.0).kappa == pytest.approx(0.0)

    def test_from_resistivities(self):
        soil = TwoLayerSoil.from_resistivities(400.0, 100.0, 0.7)
        assert soil.upper_conductivity == pytest.approx(0.0025)
        assert soil.lower_conductivity == pytest.approx(0.01)

    def test_layer_index(self):
        soil = TwoLayerSoil(0.005, 0.016, 1.0)
        assert soil.layer_index(0.5) == 1
        assert soil.layer_index(1.0) == 1  # boundary belongs to the upper layer
        assert soil.layer_index(1.5) == 2

    def test_conductivity_at(self):
        soil = TwoLayerSoil(0.005, 0.016, 1.0)
        assert soil.conductivity_at(0.2) == pytest.approx(0.005)
        assert soil.conductivity_at(3.0) == pytest.approx(0.016)

    def test_layer_bounds(self):
        soil = TwoLayerSoil(0.005, 0.016, 1.0)
        assert soil.layer_bounds(1) == (0.0, 1.0)
        assert soil.layer_bounds(2) == (1.0, float("inf"))

    def test_as_uniform(self):
        soil = TwoLayerSoil(0.005, 0.016, 1.0)
        assert soil.as_uniform(1).conductivity == pytest.approx(0.005)
        assert soil.as_uniform(2).conductivity == pytest.approx(0.016)

    def test_resistivity_contrast(self):
        soil = TwoLayerSoil(0.005, 0.02, 1.0)
        assert soil.resistivity_contrast == pytest.approx(0.25)

    def test_rejects_bad_thickness(self):
        with pytest.raises(SoilModelError):
            TwoLayerSoil(0.01, 0.02, 0.0)

    def test_rejects_bad_conductivity(self):
        with pytest.raises(SoilModelError):
            TwoLayerSoil(0.01, -0.02, 1.0)

    @given(g1=conductivity, g2=conductivity, h=thickness)
    @settings(max_examples=50, deadline=None)
    def test_kappa_always_in_open_interval(self, g1, g2, h):
        soil = TwoLayerSoil(g1, g2, h)
        assert -1.0 < soil.kappa < 1.0


class TestMultiLayerSoil:
    def test_three_layers(self):
        soil = MultiLayerSoil([0.01, 0.005, 0.02], [1.0, 2.0])
        assert soil.n_layers == 3
        assert soil.interface_depths() == (1.0, 3.0)
        assert soil.layer_index(0.5) == 1
        assert soil.layer_index(2.0) == 2
        assert soil.layer_index(5.0) == 3

    def test_mismatched_thicknesses(self):
        with pytest.raises(SoilModelError):
            MultiLayerSoil([0.01, 0.02], [1.0, 2.0])

    def test_from_resistivities(self):
        soil = MultiLayerSoil.from_resistivities([100.0, 200.0, 50.0], [1.0, 1.0])
        assert soil.conductivities == pytest.approx((0.01, 0.005, 0.02))

    def test_reflection_coefficients(self):
        soil = MultiLayerSoil([0.01, 0.005, 0.02], [1.0, 2.0])
        kappas = soil.reflection_coefficients()
        assert len(kappas) == 2
        assert kappas[0] == pytest.approx((0.01 - 0.005) / 0.015)

    def test_simplify_to_uniform(self):
        soil = MultiLayerSoil([0.01, 0.01, 0.01], [1.0, 2.0])
        simplified = soil.simplify()
        assert isinstance(simplified, UniformSoil)
        assert simplified.conductivity == pytest.approx(0.01)

    def test_simplify_to_two_layer(self):
        soil = MultiLayerSoil([0.01, 0.01, 0.02], [1.0, 2.0])
        simplified = soil.simplify()
        assert isinstance(simplified, TwoLayerSoil)
        assert simplified.upper_thickness == pytest.approx(3.0)

    def test_simplify_keeps_distinct_layers(self):
        soil = MultiLayerSoil([0.01, 0.005, 0.02], [1.0, 2.0])
        assert isinstance(soil.simplify(), MultiLayerSoil)

    def test_single_layer_multilayer(self):
        soil = MultiLayerSoil([0.01], [])
        assert soil.n_layers == 1
        assert isinstance(soil.simplify(), UniformSoil)

    def test_describe_mentions_all_layers(self):
        soil = MultiLayerSoil([0.01, 0.005, 0.02], [1.0, 2.0])
        text = soil.describe()
        assert text.count("layer") == 3


class TestLayerIndices:
    """The vectorised lookup agrees with the scalar ``layer_index``."""

    @pytest.mark.parametrize(
        "soil",
        [
            UniformSoil(0.01),
            TwoLayerSoil(0.005, 0.016, 1.0),
            MultiLayerSoil([0.01, 0.005, 0.02], [1.0, 2.0]),
        ],
        ids=["uniform", "two-layer", "three-layer"],
    )
    def test_matches_scalar_lookup(self, soil):
        rng = np.random.default_rng(5)
        interfaces = list(soil.interface_depths())
        depths = np.concatenate(
            (rng.uniform(0.0, 6.0, 200), [0.0], interfaces, np.nextafter(interfaces, 10.0))
        )
        expected = [soil.layer_index(depth) for depth in depths]
        assert soil.layer_indices(depths).tolist() == expected

    def test_rejects_negative_depth(self):
        with pytest.raises(SoilModelError):
            TwoLayerSoil(0.005, 0.016, 1.0).layer_indices(np.array([0.5, -0.1]))
