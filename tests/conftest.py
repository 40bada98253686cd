"""Shared fixtures: canonical topologies and helpers used across test modules."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.topology import Topology, dimension, get_topology

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="session")
def builtin_registry() -> dict[str, list[str]]:
    """``themis-sim registry --json`` run in a fresh interpreter.

    It lists exactly the built-in keys of every kind: in-process, the
    plugins other tests register would be listed too.
    """
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "registry", "--json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    return json.loads(proc.stdout)


@pytest.fixture
def fig5_topology() -> Topology:
    """The paper's Fig. 5 worked example: 4x4, BW(dim1) = 2 x BW(dim2).

    Bandwidths are chosen so that one *unit* (a 64 MB Reduce-Scatter on
    dim1, i.e. 48 MB transferred) takes 48 MB / 96 Gb/s-in-bytes; latencies
    are zero as in the example.
    """
    return Topology(
        [
            dimension("ring", 4, 96.0, latency_ns=0),
            dimension("ring", 4, 48.0, latency_ns=0),
        ],
        name="fig5-4x4",
    )


@pytest.fixture
def homo_3d() -> Topology:
    """Table 2's 3D-SW_SW_SW_homo (the paper's most imbalanced baseline case)."""
    return get_topology("3D-SW_SW_SW_homo")


@pytest.fixture
def small_2d() -> Topology:
    """A tiny 2x2 switch topology for fast exhaustive checks."""
    return Topology(
        [
            dimension("sw", 2, 100.0, latency_ns=100),
            dimension("sw", 2, 50.0, latency_ns=200),
        ],
        name="tiny-2x2",
    )


@pytest.fixture
def asymmetric_3d() -> Topology:
    """A 3D topology with three distinct kinds and sizes (4 x 2 x 8)."""
    return Topology(
        [
            dimension("ring", 4, 400.0, links_per_npu=2, latency_ns=20),
            dimension("fc", 2, 300.0, links_per_npu=1, latency_ns=700),
            dimension("sw", 8, 100.0, links_per_npu=1, latency_ns=1700),
        ],
        name="asym-4x2x8",
    )
