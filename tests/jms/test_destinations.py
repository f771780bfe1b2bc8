"""Tests for destination types."""

import pytest

from repro.jms import Queue, Topic


def test_equality_by_name_and_kind():
    assert Topic("a") == Topic("a")
    assert Topic("a") != Topic("b")
    assert Topic("a") != Queue("a")  # different kinds never equal


def test_hashable_for_registry_keys():
    d = {Topic("a"): 1, Queue("a"): 2}
    assert d[Topic("a")] == 1
    assert d[Queue("a")] == 2


def test_empty_name_rejected():
    with pytest.raises(ValueError):
        Topic("")


def test_frozen():
    t = Topic("x")
    with pytest.raises(Exception):
        t.name = "y"  # type: ignore[misc]
