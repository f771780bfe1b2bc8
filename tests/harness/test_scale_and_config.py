"""Tests for scale presets, env selection and config derivation."""

import pytest

from repro.harness.scale import Scale
from repro.narada import NaradaConfig
from repro.rgma import RGMAConfig


def test_from_env_default_is_bench(monkeypatch):
    monkeypatch.delenv("REPRO_FULL", raising=False)
    assert Scale.from_env().name == "bench"


def test_from_env_full(monkeypatch):
    monkeypatch.setenv("REPRO_FULL", "1")
    scale = Scale.from_env()
    assert scale.name == "full"
    assert scale.duration == 1800.0
    assert scale.creation_interval_narada == 0.5
    assert scale.warmup == (10.0, 20.0)


def test_full_scale_matches_paper_parameters():
    """§III.E/F: 0.5 s (Narada) and 1 s (R-GMA) creation stagger, 10-20 s
    warm-up, 30-minute tests."""
    full = Scale.full()
    assert full.creation_interval_narada == 0.5
    assert full.creation_interval_rgma == 1.0
    assert full.duration == 30 * 60


def test_narada_config_with_derivation():
    base = NaradaConfig()
    variant = base.with_(broadcast_flaw=False, durable_buffer_max=10)
    assert base.broadcast_flaw is True
    assert variant.broadcast_flaw is False
    assert variant.durable_buffer_max == 10
    assert variant.routing_cpu == base.routing_cpu  # untouched fields copy


def test_narada_config_frozen():
    config = NaradaConfig()
    with pytest.raises(Exception):
        config.routing_cpu = 1.0  # type: ignore[misc]


def test_rgma_config_paper_constants():
    """The values §III.F states explicitly are defaults, not knobs we moved."""
    config = RGMAConfig()
    assert config.latest_retention == 30.0
    assert config.history_retention == 60.0
    assert config.poll_interval == 0.1
    assert config.secondary_producer_delay == 30.0
    assert config.max_connections == 1000  # "increased to 1000"
    assert config.heap_bytes == 1024**3  # -Xmx1024m


def test_narada_config_paper_constants():
    config = NaradaConfig()
    assert config.heap_bytes == 1024**3  # -Xms1024m -Xmx1024m
    # The thread wall must sit between the paper's observed 3000-works and
    # 4000-fails points.
    assert 3000 < config.native_budget_bytes / config.thread_stack_bytes < 4000
