"""The bench's patch targets exist: `bench/layers.py` wraps package
functions by name, so a renamed or removed one must fail here rather than
in a traced bench run."""

import importlib.util
import os
from types import SimpleNamespace

import coopstream.bound
import coopstream.cli
import coopstream.engine
import coopstream.harness
import coopstream.traces
import coopstream.welfare

LAYERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "layers.py")


def test_capture_and_tracer_patches_install_and_undo():
    # Patches.set looks each target up first, so a missing one raises here.
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    cs = SimpleNamespace(
        cli=coopstream.cli, harness=coopstream.harness, traces=coopstream.traces,
        engine=coopstream.engine, welfare=coopstream.welfare, bound=coopstream.bound,
    )
    owners = [*vars(cs).values(), coopstream.traces.MobilityTrace]
    before = [dict(vars(owner)) for owner in owners]
    patches = layers.Patches()
    layers.Capture().install(patches, cs)
    layers.Tracer().install(patches, cs)
    during = [dict(vars(owner)) for owner in owners]
    patches.undo()
    assert [dict(vars(owner)) for owner in owners] == before
    changed = {
        (owner.__name__, name)
        for owner, a, b in zip(owners, before, during)
        for name in a
        if a[name] is not b[name]
    }
    assert {
        ("coopstream.harness", "run"),
        ("coopstream.harness", "rebuf_loss"),
        ("coopstream.harness", "make_scheduler"),
        ("coopstream.engine", "audit_run"),
        ("coopstream.bound", "solve_slotted"),
        ("MobilityTrace", "next_breakpoint"),
    } <= changed
