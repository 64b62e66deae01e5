"""The benchmark's traced run wraps package functions by name
(``perfbench/tracing.py``): every name it wraps must exist, uninstalling
must restore each one, and a wrapped kernel sees the calls of every
path."""

import importlib.util
from pathlib import Path

import numpy as np

from homlim.composite import build_stage

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_finds_every_name_and_uninstall_restores_it():
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, (owner, attr)
    # every metric name it prints is one it wraps
    assert set(tracing.LAYERS) <= set(tracer.stats)


def test_jacobian_walks_book_their_cantor_kernel_calls():
    # T1 has one Cantor factor, T2 and W two each: five kernel calls on
    # five rows each
    tracing = _tracing()
    stages = [build_stage(variant, 2) for variant in ("T1", "T2", "W")]
    pts = np.random.default_rng(0).uniform(-1, 1, (5, 3))
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        for stage in stages:
            stage.derivative_many(pts)
    finally:
        tracer.uninstall()
    assert tracer.stats["kernels.cantor_map_points"][:2] == [5, 25]
