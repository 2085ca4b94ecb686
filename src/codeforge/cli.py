"""The forge command line: build, inspect, verify, scan and simulate.

Every command that writes files also drops a run_manifest.json next to
them recording the exact command line, resolved configuration hash,
library version, seed, input digests and output list, so runs can be
reproduced bit-for-bit.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field

from . import __version__, classical, css, matio, noisesim, soundness
from . import constructions as cons

FAMILIES = ["hgp", "sehgp", "bsh", "ssh", "bssh", "rsh1", "rsh2",
            "brsh1", "brsh2", "xzzx3d"]


@dataclass
class RunManifest:
    """Reproducibility sidecar written next to every output set."""

    command: list
    config_hash: str
    version: str
    seed: int | None
    inputs: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)

    def write(self, outdir: str) -> None:
        os.makedirs(outdir, exist_ok=True)
        path = os.path.join(outdir, "run_manifest.json")
        with open(path, "w") as fh:
            json.dump(self.__dict__, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _digest_dir(indir: str) -> dict:
    """sha256 of a bundle's manifest.json and of the files it lists; other
    files in the directory are not part of the bundle."""
    with open(os.path.join(indir, "manifest.json")) as fh:
        names = json.load(fh)["files"] + ["manifest.json"]
    return {name: _sha256(os.path.join(indir, name)) for name in names}


def _load_config(path: str) -> dict:
    """Plain key=value lines; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, val = (s.strip() for s in line.split("=", 1))
            out[key.replace("-", "_")] = val
    return out


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _parse_base(desc: str):
    """'rep:N' or 'alist:PATH' -> (ClassicalCode, descriptor, input paths)."""
    kind, _, rest = desc.partition(":")
    if kind == "rep" and rest.isdigit():
        return classical.repetition_closed_loop(int(rest)), desc, {}
    if kind == "alist" and rest:
        code = classical.ClassicalCode(matio.read_alist(rest),
                                       name=os.path.basename(rest))
        return code, desc, {rest: _sha256(rest)}
    raise ValueError(f"base must be rep:N or alist:PATH, got {desc!r}")


def build_family(family: str, base: classical.ClassicalCode):
    """Construct one code family instance from a single base code."""
    if family == "hgp":
        return cons.hgp(base.h, base.h)
    if family == "xzzx3d":
        return cons.xzzx3d(base.n)
    if family in ("ssh", "bssh"):
        return getattr(cons, family)(base)
    if family in ("sehgp", "bsh"):
        return getattr(cons, family)(base, base, base, base)
    if family in ("rsh1", "rsh2", "brsh1", "brsh2"):
        return getattr(cons, family[:-1])(cons.sehgp(base, base, base, base),
                                          int(family[-1]))
    raise ValueError(f"unknown family {family!r}")


def cmd_build(args, manifest: RunManifest) -> int:
    base, base_desc, inputs = _parse_base(args.base)
    manifest.inputs.update(inputs)
    if args.family == "xzzx3d" and not args.base.startswith("rep:"):
        raise ValueError("xzzx3d takes a ring size, use --base rep:N")
    code = build_family(args.family, base)
    code.validate()
    params = {"n": code.n, "k": code.logical_count()}
    if args.max_weight:
        d = cons.code_distance(code, args.max_weight, params["k"])
        params["d"] = css._jsonable(d)
    manifest.outputs = css.export_bundle(
        code, args.out,
        extra={"family": args.family, "base": base_desc, "params": params})
    manifest.write(args.out)
    print(f"built {args.family} from {base_desc}: n={params['n']} "
          f"k={params['k']}" + (f" d={params['d']}" if "d" in params else ""))
    return 0


def cmd_params(args, manifest: RunManifest) -> int:
    if args.code:
        code = css.load_bundle(args.code)
    elif args.family and args.base:
        base, _, _ = _parse_base(args.base)
        code = build_family(args.family, base)
    else:
        raise ValueError("params needs --code, or both --family and --base")
    k = css.logical_count(code)
    d = cons.code_distance(code, args.max_weight, k)
    print(f"n={code.n} k={k} d={d}")
    return 0


def cmd_verify(args, manifest: RunManifest) -> int:
    code = css.load_bundle(args.code)
    css.validate_css(code)
    with open(os.path.join(args.code, "manifest.json")) as fh:
        recorded = json.load(fh)
    want = recorded.get("params", {})
    if "k" in want:
        have = css.logical_count(code)
        if have != want["k"]:
            raise css.CssValidationError(
                f"logical count mismatch: bundle says {want['k']}, rank "
                f"arithmetic gives {have}")
    if recorded.get("qubits") != code.n:
        raise css.CssValidationError(
            f"qubit count mismatch: manifest {recorded.get('qubits')}, "
            f"matrices {code.n}")
    print(f"ok: {args.code} valid ({code.n} qubits)")
    return 0


def cmd_soundness(args, manifest: RunManifest) -> int:
    code = css.load_bundle(args.code)
    model = soundness.StabilizerModel.from_code(code)
    f = soundness.F_BY_NAME[args.f]
    report = soundness.soundness_scan(model.syndrome_map, args.t, f)
    with open(args.report, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["syndrome_weight", "max_reduced_weight", "bound",
                    "violated"])
        for ws in range(args.t + 1):
            bound = f(ws)
            seen = report.per_weight.get(ws)
            violated = any(v[1] == ws for v in report.violations)
            w.writerow([ws, "" if seen is None else seen,
                        f"{bound.numerator}/{bound.denominator}"
                        if bound.denominator != 1 else str(bound.numerator),
                        int(violated)])
    manifest.inputs.update(_digest_dir(args.code))
    manifest.outputs = [os.path.basename(args.report)]
    manifest.write(os.path.dirname(os.path.abspath(args.report)))
    status = "clean" if report.clean else "violations found"
    print(f"scan t={args.t} f={args.f}: {status} "
          f"(max ratio {report.max_ratio})")
    return 0 if report.clean else 1


def cmd_simulate(args, manifest: RunManifest) -> int:
    code = css.load_bundle(args.code)
    if args.bias:
        label, _, val = args.bias.partition(":")
        if label != "etaZ":
            raise ValueError(f"bias must look like etaZ:VALUE, got {args.bias!r}")
        eta = float("inf") if val in ("inf", "Inf") else float(val)
        model = noisesim.NoiseModel.z_biased(args.p, eta, args.qmeas)
    else:
        model = noisesim.NoiseModel.depolarizing(args.p, args.qmeas)
    summary, _ = noisesim.run_experiment(code, model, args.trials,
                                         args.seed or 0, out_csv=args.out)
    manifest.inputs.update(_digest_dir(args.code))
    manifest.outputs = [os.path.basename(args.out)]
    manifest.write(os.path.dirname(os.path.abspath(args.out)))
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_export(args, manifest: RunManifest) -> int:
    code = css.load_bundle(args.code)
    with open(os.path.join(args.code, "manifest.json")) as fh:
        recorded = json.load(fh)
    extra = {k: v for k, v in recorded.items()
             if k in ("family", "base", "params")}
    manifest.outputs = css.export_bundle(code, args.out, extra=extra)
    manifest.inputs.update(_digest_dir(args.code))
    manifest.write(args.out)
    print(f"exported {args.code} -> {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="forge",
        description="GF(2) code family builder, verifier and simulator")
    p.add_argument("--version", action="version", version=__version__)
    shared = argparse.ArgumentParser(add_help=False)
    for target in (p, shared):
        target.add_argument("--config", help="key=value defaults file")
        target.add_argument("--seed", type=int, default=None)
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=lambda **kw: argparse.ArgumentParser(
                               parents=[shared], **kw))

    b = sub.add_parser("build", help="construct a code family instance")
    b.add_argument("--family", required=True, choices=FAMILIES)
    b.add_argument("--base", required=True, help="rep:N or alist:PATH")
    b.add_argument("--out", required=True)
    b.add_argument("--max-weight", type=int, default=0,
                   help="also search the distance up to this weight")
    b.set_defaults(func=cmd_build)

    q = sub.add_parser("params", help="report n, k and a bounded distance")
    q.add_argument("--code", help="bundle directory")
    q.add_argument("--family", choices=FAMILIES)
    q.add_argument("--base")
    q.add_argument("--max-weight", type=int, default=3)
    q.set_defaults(func=cmd_params)

    v = sub.add_parser("verify", help="validate a bundle on disk")
    v.add_argument("--code", required=True)
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("soundness", help="bounded soundness scan")
    s.add_argument("--code", required=True)
    s.add_argument("--t", type=int, required=True)
    s.add_argument("--f", choices=["x2over4", "x3over4"], default="x2over4")
    s.add_argument("--report", required=True, help="CSV output path")
    s.set_defaults(func=cmd_soundness)

    m = sub.add_parser("simulate", help="Monte Carlo single-shot decoding")
    m.add_argument("--code", required=True)
    m.add_argument("--p", type=float, required=True)
    m.add_argument("--bias", help="etaZ:VALUE (VALUE may be inf)")
    m.add_argument("--qmeas", type=float, default=0.0)
    m.add_argument("--trials", type=int, required=True)
    m.add_argument("--out", required=True, help="CSV output path")
    m.set_defaults(func=cmd_simulate)

    e = sub.add_parser("export", help="re-export a bundle (round-trip safe)")
    e.add_argument("--code", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_export)
    return p, sub


# built once per process; a --config call builds its own, because it sets
# defaults and lifts required flags on the parser it uses
_PARSER = _build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, sub = _PARSER
    cfg = {}
    if "--config" in argv:
        parser, sub = _build_parser()
        i = argv.index("--config") + 1
        try:
            if i == len(argv):
                raise ValueError("--config needs a file path")
            cfg = _load_config(argv[i])
            known = {a.dest for sp in [parser, *sub.choices.values()]
                     for a in sp._actions}
            unknown = sorted(set(cfg) - known)
            if unknown:
                raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for sp in [parser, *sub.choices.values()]:
            sp.set_defaults(**cfg)
            for action in sp._actions:
                if action.dest in cfg:
                    action.required = False
    try:
        args = parser.parse_args(argv)
        for name in ("seed", "trials", "t", "max_weight"):
            if hasattr(args, name) and isinstance(getattr(args, name), str):
                setattr(args, name, int(getattr(args, name)))
        for name in ("p", "qmeas"):
            if hasattr(args, name) and isinstance(getattr(args, name), str):
                setattr(args, name, float(getattr(args, name)))
        if args.seed is not None and not 0 <= args.seed < 2 ** 128:
            raise ValueError(f"--seed must be in [0, 2**128), got {args.seed}")
        # build reads --max-weight 0 as "no distance search"
        floors = {"trials": 1, "t": 0,
                  "max_weight": 0 if args.command == "build" else 1}
        for name, floor in floors.items():
            if getattr(args, name, floor) < floor:
                raise ValueError(f"--{name.replace('_', '-')} must be >= "
                                 f"{floor}, got {getattr(args, name)}")
        manifest = RunManifest(command=["forge"] + argv,
                               config_hash=_config_hash(cfg),
                               version=__version__, seed=args.seed)
        return args.func(args, manifest)
    except SystemExit:
        raise
    except (ValueError, OSError, KeyError, IndexError, MemoryError) as exc:
        msg = str(exc).replace("\n", " ") or exc.__class__.__name__
        print(f"error: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
