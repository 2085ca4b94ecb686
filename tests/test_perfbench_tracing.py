"""The names perfbench/tracing.py wraps must exist where it looks for them.

The tracer reads ``owner.__dict__[attr]`` for every TARGETS entry, so a
function that is renamed, moved or only inherited breaks traced
benchmark runs.  This test imports the tracer unchanged and installs it
on the codeforge modules.
"""
import importlib.util
from pathlib import Path

from codeforge import (classical, cli, complexes, constructions, css, f2,
                       matio, noisesim, soundness)

MODULES = {m.__name__.rpartition(".")[2]: m
           for m in (classical, cli, complexes, constructions, css, f2, matio,
                     noisesim, soundness)}


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def resolve(modname, path):
    owner = MODULES[modname]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def test_every_target_resolves_and_uninstall_restores():
    tracing = load_tracing()
    before = {}
    for modname, path, _ in tracing.TARGETS:
        owner, attr = resolve(modname, path)
        assert attr in vars(owner), (modname, path)
        before[modname, path] = vars(owner)[attr]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for modname, path, _ in tracing.TARGETS:
            owner, attr = resolve(modname, path)
            wrapped = vars(owner)[attr]
            assert wrapped.__wrapped__ is before[modname, path], path
        matcher = soundness.SupportMatcher([(0, "a", 1), (1, "b", 2)])
        assert matcher.find_min(3, 2) == (2, [(0, "a"), (1, "b")])
    finally:
        tracer.uninstall()
    for modname, path, _ in tracing.TARGETS:
        owner, attr = resolve(modname, path)
        assert vars(owner)[attr] is before[modname, path], path
    spans = [s for s in tracer.spans if s[tracing.NAME] == "soundness.find_min"]
    assert len(spans) == 1 and spans[0][tracing.NOTE] == 2
