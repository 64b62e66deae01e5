"""The benchmark's traced run wraps package functions by name
(``perfbench/tracing.py``): every name it wraps must exist, and
uninstalling must restore each one."""

import importlib.util
from pathlib import Path

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
