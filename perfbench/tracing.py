"""Layer spans recorded from outside the codeforge package.

The tracer swaps chosen public functions and methods of codeforge for
timing wrappers, for the duration of one measured pass, and puts the
originals back afterwards.  A module that bound a function with
``from ... import`` holds its own reference, so every codeforge module
namespace is searched for the original object and patched too.

Spans stay in memory as ``[name, parent index, start, seconds, note]``.
Self time is a span's seconds minus those of its direct children, so
only wrapped calls count as children.
"""
from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
from time import perf_counter

import numpy as np

# (module, attribute path, span name).  SupportMatcher.find is left out on
# purpose: it recurses millions of times per pass, and find_min above it
# already carries the counts the metrics need.
TARGETS = [
    ("f2", "mat_mul", "f2.mat_mul"),
    ("f2", "mat_vec", "f2.mat_vec"),
    ("f2", "row_echelon", "f2.row_echelon"),
    ("f2", "kernel_basis", "f2.kernel_basis"),
    ("f2", "RowSpaceTester.contains_batch", "f2.RowSpaceTester.contains_batch"),
    ("complexes", "tensor", "complexes.tensor"),
    ("complexes", "ChainComplex.validate", "complexes.validate"),
    ("constructions", "hgp", "constructions.family.hgp"),
    ("constructions", "sehgp", "constructions.family.sehgp"),
    ("constructions", "ssh", "constructions.family.ssh"),
    ("constructions", "bssh", "constructions.family.bssh"),
    ("constructions", "bsh", "constructions.family.bsh"),
    ("constructions", "rsh", "constructions.family.rsh"),
    ("constructions", "brsh", "constructions.family.brsh"),
    ("constructions", "xzzx3d", "constructions.family.xzzx3d"),
    ("constructions", "cphr", "constructions.family.cphr"),
    ("constructions", "BlockTaggedCss.validate", "constructions.validate"),
    ("constructions", "BlockTaggedCss.logical_count",
     "constructions.logical_count"),
    ("constructions", "pauli_distance", "constructions.pauli_distance"),
    ("classical", "kernel_supports_of_weight",
     "classical.kernel_supports_of_weight"),
    ("css", "validate_css", "css.validate_css"),
    ("css", "distance", "css.distance"),
    ("css", "export_bundle", "css.export_bundle"),
    ("css", "load_bundle", "css.load_bundle"),
    ("matio", "write_alist", "matio.write_alist"),
    ("matio", "read_alist", "matio.read_alist"),
    ("soundness", "SupportMatcher.find_min", "soundness.find_min"),
    ("soundness", "StabilizerModel.repair_syndrome",
     "soundness.repair_syndrome"),
    ("soundness", "StabilizerModel.min_weight_decode",
     "soundness.min_weight_decode"),
    ("soundness", "StabilizerModel.reduced_weight", "soundness.reduced_weight"),
    ("soundness", "decode_residual", "soundness.decode_residual"),
    ("soundness", "soundness_scan", "soundness.scan"),
    ("noisesim", "run_experiment", "noisesim.run_experiment"),
    ("noisesim", "sample_error", "noisesim.sample_error"),
    ("noisesim", "write_records", "noisesim.write_records"),
    ("cli", "main", "cli.main"),
    ("cli", "RunManifest.write", "cli.manifest.write"),
    ("cli", "_digest_dir", "cli.manifest.digest"),
]

NAME, PARENT, START, SECONDS, NOTE = range(5)


def _mac(args, kwargs, out):
    """Multiply-accumulates of an (m, r) @ (r, n) product: m * r * n."""
    m, r = np.shape(args[0])
    return m * r * np.shape(args[1])[1]


def _file_bytes(args, kwargs, out):
    return os.path.getsize(args[1])


def _find_min_weight(args, kwargs, out):
    return out[0]


def _first_is_none(args, kwargs, out):
    return out[0] is None


def _is_none(args, kwargs, out):
    return out is None


def _is_lower_bound(args, kwargs, out):
    return not isinstance(out, int)


# what a wrapper records about a call's result, by span name
NOTES = {
    "f2.mat_mul": _mac,
    "matio.write_alist": _file_bytes,
    "soundness.find_min": _find_min_weight,
    "soundness.repair_syndrome": _first_is_none,
    "soundness.min_weight_decode": _is_none,
    "soundness.reduced_weight": _is_lower_bound,
    "soundness.decode_residual": _is_none,
}


class Tracer:
    """Installs timing wrappers and keeps the spans they record."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        rec = [name, parent, perf_counter(), 0.0, None]
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[SECONDS] += perf_counter() - rec[START]
        self._stack.pop()

    def _wrap(self, fn, name: str):
        note = NOTES.get(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if note is not None:
                rec[NOTE] = note(args, kwargs, out)
            return out
        return wrapper

    def _wrap_generator(self, fn, name: str):
        """A generator's span counts only the time spent inside it, summed
        over its resumptions; its note is the number of items yielded."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            rec = [name, parent, perf_counter(), 0.0, 0]
            tracer.spans.append(rec)
            while True:
                tracer._stack.append(idx)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    rec[SECONDS] += perf_counter() - t0
                    tracer._stack.pop()
                rec[NOTE] += 1
                yield item
        return wrapper

    def install(self) -> None:
        modules = {k: v for k, v in sys.modules.items()
                   if k.startswith("codeforge.")}
        for modname, path, name in TARGETS:
            owner = modules[f"codeforge.{modname}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr]
            wrapped = self._wrap(orig, name)
            self._set(owner, attr, wrapped)
            if outer:
                continue
            # module-level functions: also patch from-imported bindings
            for mod in modules.values():
                for key, val in list(vars(mod).items()):
                    if val is orig and mod is not owner:
                        self._set(mod, key, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def self_seconds(self) -> list[float]:
        own = [rec[SECONDS] for rec in self.spans]
        for rec in self.spans:
            if rec[PARENT] >= 0:
                own[rec[PARENT]] -= rec[SECONDS]
        return own


def _quantile(values: list[float], q: int, n: int) -> float:
    """q-th of n quantiles; the single value when there is only one."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=n, method="inclusive")[q - 1]


def _trial_times(spans) -> tuple[list[float], list[bool]]:
    """Per-trial seconds and whether the trial had a search miss.

    A trial starts at its sample_error call and ends at the next one, or
    at write_records or the end of run_experiment for the last trial.
    """
    times, missed = [], []
    for i, rec in enumerate(spans):
        if rec[NAME] != "noisesim.run_experiment":
            continue
        end = rec[START] + rec[SECONDS]
        start = None
        for sub in spans[i + 1:]:
            if sub[START] >= end:
                break
            if sub[NAME] == "noisesim.sample_error":
                if start is not None:
                    times.append(sub[START] - start)
                start = sub[START]
                missed.append(False)
            elif sub[NAME] == "noisesim.write_records":
                end = sub[START]
                break
            elif (sub[NAME] == "soundness.find_min" and sub[NOTE] is None
                  and start is not None):
                missed[-1] = True
        if start is not None:
            times.append(end - start)
    return times, missed


def layer_metrics(spans: list[list], own: list[float]) -> dict[str, float]:
    """The per-layer metrics, from the traced passes' spans and self
    times."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    for rec in spans:
        calls[rec[NAME]] = calls.get(rec[NAME], 0) + 1
        total[rec[NAME]] = total.get(rec[NAME], 0.0) + rec[SECONDS]

    def notes(name):
        return [rec[NOTE] for rec in spans if rec[NAME] == name]

    def frac(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for name in ("f2.mat_mul", "f2.mat_vec", "f2.row_echelon",
                 "constructions.pauli_distance",
                 "classical.kernel_supports_of_weight", "soundness.find_min"):
        m[f"{name}.calls"] = calls.get(name, 0)
    for name in ("f2.mat_mul", "f2.mat_vec", "f2.row_echelon",
                 "f2.kernel_basis", "f2.RowSpaceTester.contains_batch",
                 "complexes.tensor", "complexes.validate",
                 "constructions.validate", "constructions.logical_count",
                 "constructions.pauli_distance",
                 "classical.kernel_supports_of_weight",
                 "css.validate_css", "css.distance", "css.export_bundle",
                 "css.load_bundle", "matio.write_alist", "matio.read_alist",
                 "soundness.find_min", "soundness.repair_syndrome",
                 "soundness.min_weight_decode", "soundness.reduced_weight",
                 "soundness.scan", "noisesim.sample_error",
                 "noisesim.write_records", "cli.main"):
        m[f"{name}.s"] = total.get(name, 0.0)
    m["f2.mat_mul.mac"] = sum(notes("f2.mat_mul"))
    m["constructions.family.self_s"] = sum(
        own[i] for i, rec in enumerate(spans)
        if rec[NAME].startswith("constructions.family."))
    m["classical.kernel_supports_of_weight.yielded"] = sum(
        notes("classical.kernel_supports_of_weight"))
    m["matio.write_alist.bytes"] = sum(notes("matio.write_alist"))

    weights = notes("soundness.find_min")
    misses = sum(w is None for w in weights)
    m["soundness.find_min.misses"] = misses
    m["soundness.find_min.miss_frac"] = frac(misses, len(weights))
    for w in range(5):
        m[f"soundness.find_min.hit_w{w}"] = sum(v == w for v in weights)
    m["soundness.repair_syndrome.aborts"] = sum(
        notes("soundness.repair_syndrome"))
    m["soundness.min_weight_decode.aborts"] = sum(
        notes("soundness.min_weight_decode"))
    m["soundness.reduced_weight.inexact"] = sum(
        notes("soundness.reduced_weight"))
    residual = notes("soundness.decode_residual")
    m["soundness.decode_residual.abort_frac"] = frac(sum(residual),
                                                     len(residual))
    scans = {i for i, rec in enumerate(spans) if rec[NAME] == "soundness.scan"}
    m["soundness.scan.enum_self_s"] = sum(own[i] for i in scans)
    m["soundness.scan.achievable"] = sum(
        1 for rec in spans
        if rec[NAME] == "soundness.find_min" and rec[PARENT] in scans)

    times, missed = _trial_times(spans)
    m["noisesim.trial.p50_s"] = _quantile(times, 1, 2)
    m["noisesim.trial.p95_s"] = _quantile(times, 19, 20)
    m["noisesim.trial.max_s"] = max(times, default=0.0)
    m["noisesim.trial.tail_share"] = frac(
        sum(t for t, x in zip(times, missed) if x), sum(times))
    m["cli.manifest.s"] = (total.get("cli.manifest.write", 0.0)
                           + total.get("cli.manifest.digest", 0.0))
    return m


def command_spans(spans: list[list]) -> list[list[int]]:
    """Span indices grouped by the top-level cli.main call they fall in."""
    groups: list[list[int]] = []
    root_of: dict[int, int] = {}
    for i, rec in enumerate(spans):
        if rec[PARENT] < 0:
            root_of[i] = len(groups)
            groups.append([i])
        else:
            g = root_of[rec[PARENT]]
            root_of[i] = g
            groups[g].append(i)
    return groups
