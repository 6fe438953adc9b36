"""Tests for region-aware latency and its netgen integration."""

import random

import pytest

from repro.core.campaign import TopoShot
from repro.netgen.ethereum import NetworkSpec, generate_network
from repro.netgen.workloads import prefill_mempools
from repro.sim.latency import GeoLatency


@pytest.fixture
def model():
    return GeoLatency(
        regions={"a": "us", "b": "us", "c": "eu", "d": "ap"},
        jitter_sigma=0.0,  # deterministic for exact assertions
    )


class TestGeoLatency:
    def test_intra_region_faster_than_inter(self, model):
        rng = random.Random(1)
        assert model(rng, "a", "b") < model(rng, "a", "c")
        assert model(rng, "a", "c") < model(rng, "a", "d")

    def test_symmetric(self, model):
        rng = random.Random(1)
        assert model(rng, "a", "c") == model(rng, "c", "a")

    def test_unknown_node_uses_default_region(self, model):
        rng = random.Random(1)
        assert model(rng, "mystery", "a") == model(rng, "b", "a")

    def test_jitter_bounded_by_cap(self):
        model = GeoLatency(
            regions={"x": "us", "y": "ap"}, jitter_sigma=2.0, cap=0.5
        )
        rng = random.Random(2)
        assert all(model(rng, "x", "y") <= 0.5 for _ in range(200))

    def test_missing_region_pair_raises(self):
        model = GeoLatency(
            regions={"x": "mars"},
            base_delays={("us", "us"): 0.03},
            default_region="us",
        )
        rng = random.Random(3)
        with pytest.raises(ValueError):
            model(rng, "x", "x")

    def test_invalid_base_delay_rejected(self):
        with pytest.raises(ValueError):
            GeoLatency(regions={}, base_delays={("us", "us"): 0.0})


class TestNetgenRegions:
    def test_region_mix_activates_geo_latency(self):
        network = generate_network(
            NetworkSpec(
                n_nodes=15, seed=3, region_mix={"us": 0.5, "eu": 0.3, "ap": 0.2}
            )
        )
        assert isinstance(network.latency, GeoLatency)
        assert set(network.latency.regions) == set(network.measurable_node_ids())

    def test_explicit_latency_wins_over_region_mix(self):
        from repro.sim.latency import ConstantLatency

        network = generate_network(
            NetworkSpec(
                n_nodes=8,
                seed=4,
                latency=ConstantLatency(0.05),
                region_mix={"us": 1.0},
            )
        )
        assert isinstance(network.latency, ConstantLatency)

    def test_measurement_still_exact_under_geo_latency(self):
        network = generate_network(
            NetworkSpec(
                n_nodes=12, seed=5, region_mix={"us": 0.5, "eu": 0.5}
            )
        )
        prefill_mempools(network)
        shot = TopoShot.attach(network)
        shot.config = shot.config.with_repeats(2)
        measurement = shot.measure_network()
        assert measurement.score.precision == 1.0
        assert measurement.score.recall >= 0.9
