"""End-to-end command line: build, params, verify, soundness, simulate,
export, config files and the reproducibility manifest."""
import csv
import hashlib
import json

import pytest

from codeforge import __version__, cli, css
from codeforge import constructions as cons
from codeforge.cli import FAMILIES, main


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def build_bundle(tmp_path, capsys, family="hgp", base="rep:3", name="b"):
    out = tmp_path / name
    code, _, err = run(capsys, "build", "--family", family, "--base", base,
                       "--out", str(out))
    assert code == 0, err
    return out


def test_build_and_params(tmp_path, capsys):
    out = build_bundle(tmp_path, capsys)
    assert (out / "hx.alist").exists()
    assert (out / "manifest.json").exists()
    code, stdout, _ = run(capsys, "params", "--code", str(out),
                          "--max-weight", "3")
    assert code == 0
    assert "n=18 k=2 d=3" in stdout


@pytest.mark.parametrize("flags", [(), ("--family", "hgp"),
                                   ("--base", "rep:2")])
def test_params_names_missing_flags(capsys, flags):
    code, _, err = run(capsys, "params", *flags)
    assert code == 1 and err.startswith("error: ")
    assert "\n" not in err.strip()
    for flag in ("--code", "--family", "--base"):
        assert flag in err


def test_build_reports_params_with_distance(tmp_path, capsys):
    code, stdout, _ = run(capsys, "build", "--family", "hgp", "--base",
                          "rep:2", "--out", str(tmp_path / "b"),
                          "--max-weight", "2")
    assert code == 0
    assert "n=8 k=2 d=2" in stdout


def test_build_counts_logicals_once(tmp_path, capsys, monkeypatch):
    counted = []
    count = css.logical_count
    monkeypatch.setattr(css, "logical_count",
                        lambda c: counted.append(c) or count(c))
    code, stdout, _ = run(capsys, "build", "--family", "sehgp", "--base",
                          "rep:3", "--max-weight", "4", "--out",
                          str(tmp_path / "b"))
    assert code == 0 and stdout.startswith("built sehgp from rep:3: ")
    assert len(counted) == 1
    counted.clear()
    code, stdout, _ = run(capsys, "params", "--family", "sehgp", "--base",
                          "rep:2", "--max-weight", "4")
    assert code == 0 and stdout == "n=96 k=6 d=4\n"
    assert len(counted) == 1
    # the unpaired hgp and the paired bsh of the 2x2 identity have k = 0,
    # so their distance is undefined
    eye = tmp_path / "eye.alist"
    eye.write_text("2 2\n1 1\n1 1\n1 1\n1\n2\n1\n2\n")
    for family in ("hgp", "bsh"):
        for cmd in (["build", "--out", str(tmp_path / family)], ["params"]):
            code, out, err = run(capsys, *cmd, "--family", family, "--base",
                                 f"alist:{eye}", "--max-weight", "2")
            assert code == 1 and out == ""
            assert err == "error: code has no logical qubits\n"
        assert not (tmp_path / family).exists()


def test_every_family_constructs_and_validates_one_code(tmp_path, capsys,
                                                       monkeypatch):
    calls = []
    init, validate = cons.BlockTaggedCss.__init__, css.validate_css

    def counted_init(self, *args, **kwargs):
        calls.append("construct")
        init(self, *args, **kwargs)

    def counted_validate(c):
        calls.append("validate")
        validate(c)

    monkeypatch.setattr(cons.BlockTaggedCss, "__init__", counted_init)
    monkeypatch.setattr(css, "validate_css", counted_validate)
    for fam in FAMILIES:
        calls.clear()
        code, _, err = run(capsys, "build", "--family", fam, "--base",
                           "rep:2", "--out", str(tmp_path / fam))
        assert code == 0, (fam, err)
        assert calls == ["construct", "validate"], (fam, calls)


def test_build_bsh_rep4_syndrome_distance(tmp_path, capsys):
    # its Kronecker-structured syndrome checks once collapsed the search
    # keys, and the weight-4 shell asked for 163 GiB
    out = build_bundle(tmp_path, capsys, family="bsh", base="rep:4")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["metadata"]["d_s"] == 4


# sha256 of every bundle file of each family built from rep:2, frozen so
# that a refactor of the code representation cannot change a byte
GOLDEN_BUNDLES = {
    "hgp": {
        "hx.alist": "f63d57b377d80d64fbfc4d228d50df1f80d6970c6cc5dc0da3e5c466d526234c",
        "hz.alist": "78c6efc9e011464d893ca9d915a7ee298c470903600fe61a4f34b67b5a92371d",
        "manifest.json": "84eb32f5c50e00ec48f695d1208eb3472ed3e8be7518f15d0993c657169b20fe",
    },
    "sehgp": {
        "hx.alist": "a5212b8f5bebf066d1aa7a11260aec4f569771d073b2f6b6d8931db22123e0dd",
        "hz.alist": "c51488f3e3d3ac4f6c74172907cdc00dc1ed2f0986c3f315e5b379161fca0a95",
        "manifest.json": "265f0832bec61c048a607649cffe638a628af2c83740a81131f287e16cf79cac",
    },
    "bsh": {
        "hsx.alist": "604838b650043c3867bd0780fbffb71b9c306c3ef0741e649cca227f728e7002",
        "hsz.alist": "1c84c3bc0f6075e7c14f63cb0a8aeb737e00df48245265a8dc14c176477d5839",
        "hx.alist": "29c97765ec227d1e239f64b175486547f813b92cf0eae59d0a9fc68d0e476f77",
        "hz.alist": "7ea77744a88d9065a1f98f2ba6787dade162bd0e32ab5be3b10725bf894a6fd0",
        "manifest.json": "431bc26dfeda1f83f7307532916776fca0316c95f018b02d0f868167183dd710",
    },
    "ssh": {
        "hx.alist": "62c1662780119e21180df7a98ce3a2d20c908e19c946734581124aed093ba7ac",
        "hz.alist": "185714fbf3d8a4c83fd882b52bce0070c39e1bfd0ad7cde2aaf2e7592da9ef17",
        "manifest.json": "cef22f064a5419ba5fa39c9a23627b6eb5ad14b23c0554fda2f04b40105ebdd1",
    },
    "bssh": {
        "hsx.alist": "ceee67ffc4feac8a10ff6a100bceabb31897a1e97d48e4f016ee81947f1296cf",
        "hsz.alist": "4bdfe025df3b3901ec0e8995f84b4dc286b8a32d2091083ae2aea4f35fbb4109",
        "hx.alist": "90aa05d5361631998cc411d061ba7f8966a14075a932c99808c9909885341817",
        "hz.alist": "de389cb857317081b3e71a62178dd2a645b7675d67ccdaa0533fae1e7f2c245a",
        "manifest.json": "5ca8905ee2f282494f2fdc65d24c66f5cddd25c77ee0d6f086ed9104368199fc",
    },
    "rsh1": {
        "hsx.alist": "b7f09932b3151f74ea5c17051bc8cf413f5041804b1e9c54e91016ef3586aafe",
        "hsz.alist": "ca755eddfda950b37ab9bcb91258945590ff969a676373511aaa1847ccf99e71",
        "hx.alist": "be8bc92cf18ffac9d770355ffa7908ef550841d94d811870f7b5267f7a6ae406",
        "hz.alist": "13fba16822e318b107ecc68756f5f4454043cdb49bc475d4baf76e7a75ddcadd",
        "manifest.json": "f4c5557ef5923826f708ac82e29571b5c1537b2039e936e86824f8121973b97f",
    },
    "rsh2": {
        "hsx.alist": "d0f3c67dd4dd77818cf98248bf85051797645023d2fc04e61c8d8f0aed64e772",
        "hsz.alist": "425f47896c68e2b27b1a6f28449902d130d09c9096eb001ada0c51fca71f252d",
        "hx.alist": "62c1662780119e21180df7a98ce3a2d20c908e19c946734581124aed093ba7ac",
        "hz.alist": "185714fbf3d8a4c83fd882b52bce0070c39e1bfd0ad7cde2aaf2e7592da9ef17",
        "manifest.json": "c84aef8041628c6a0ab04c12cb723c85e862627cd88c0896f5decbf12be6d424",
    },
    "brsh1": {
        "hsx.alist": "da1a9d9cf8a407d7cfe8a4fbd84aafdc47be52dae96880965ab10177d94aaf68",
        "hsz.alist": "a42795824f0a78baa8038fb50fbf819ee923d2b653543ed3e382a2e99d627e3c",
        "hx.alist": "ab30b371f4bd85b446392a4e64fa55e46131c0d4aa38be258bdd0313a4912646",
        "hz.alist": "a09b911b5e178a0d9b3990f440916bb5002df80957a704d29508da743a9656e6",
        "manifest.json": "6118ab6a39fbddc9b3e44652958ea9e613904716167472bb06008f8b02f87212",
    },
    "brsh2": {
        "hsx.alist": "16fdf1dd370ba677d6a099a207b48ed5f980aae701d5e69b32de91f97a86aca2",
        "hsz.alist": "55af862b89d509d8ed685270c30e94677711ca850bac20b9aec93496ea1d5262",
        "hx.alist": "de389cb857317081b3e71a62178dd2a645b7675d67ccdaa0533fae1e7f2c245a",
        "hz.alist": "90aa05d5361631998cc411d061ba7f8966a14075a932c99808c9909885341817",
        "manifest.json": "d9290a7987124c9eeb0d90f4b52498280c99791f544ee0af8d85e501b0bda762",
    },
    "xzzx3d": {
        "hsx.alist": "ceee67ffc4feac8a10ff6a100bceabb31897a1e97d48e4f016ee81947f1296cf",
        "hsz.alist": "4bdfe025df3b3901ec0e8995f84b4dc286b8a32d2091083ae2aea4f35fbb4109",
        "hx.alist": "90aa05d5361631998cc411d061ba7f8966a14075a932c99808c9909885341817",
        "hz.alist": "de389cb857317081b3e71a62178dd2a645b7675d67ccdaa0533fae1e7f2c245a",
        "manifest.json": "08579f9ade84ad4833308ca77d1df7ad749f449f87fff82b1a2938da01c6ad73",
    },
}
# simulate on bssh rep:2 (p=0.05, etaZ:10, qmeas=0.01, 6 trials, seed 3):
# the six rows hold a logical failure, an abort and repaired readouts
GOLDEN_SIMULATE_CSV = "6484787e83dd8287e8cacb44ec60b1e88d0a62a25f46e4c0ebcaca6879e6a420"
# soundness t=3 f=x3over4 on rsh1 rep:2
GOLDEN_SOUNDNESS_CSV = "ad74954b1c4a1acc2cbf51cea76d4c29649097fbf03f8ce4987bdb159219dc4f"


def _file_sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_build_every_family_smoke(tmp_path, capsys):
    assert sorted(GOLDEN_BUNDLES) == sorted(FAMILIES)
    for fam in FAMILIES:
        out = tmp_path / fam
        code, _, err = run(capsys, "build", "--family", fam, "--base",
                           "rep:2", "--out", str(out))
        assert code == 0, (fam, err)
        code, _, _ = run(capsys, "verify", "--code", str(out))
        assert code == 0, fam
        got = {p.name: _file_sha256(p) for p in out.iterdir()
               if p.name != "run_manifest.json"}
        assert got == GOLDEN_BUNDLES[fam], fam
    csv_path = tmp_path / "sim.csv"
    code, _, err = run(capsys, "simulate", "--code", str(tmp_path / "bssh"),
                       "--p", "0.05", "--bias", "etaZ:10", "--qmeas", "0.01",
                       "--trials", "6", "--seed", "3", "--out", str(csv_path))
    assert code == 0, err
    assert _file_sha256(csv_path) == GOLDEN_SIMULATE_CSV
    report = tmp_path / "scan.csv"
    code, _, err = run(capsys, "soundness", "--code", str(tmp_path / "rsh1"),
                       "--t", "3", "--f", "x3over4", "--report", str(report))
    assert code == 0, err
    assert _file_sha256(report) == GOLDEN_SOUNDNESS_CSV


def test_run_manifest_contents(tmp_path, capsys):
    out = build_bundle(tmp_path, capsys)
    m = json.loads((out / "run_manifest.json").read_text())
    assert m["version"] == __version__
    assert m["command"][0] == "forge"
    assert "hx.alist" in m["outputs"]
    assert m["config_hash"]


def test_verify_catches_corruption(tmp_path, capsys):
    out = build_bundle(tmp_path, capsys, base="rep:2")
    path = out / "hz.alist"
    lines = path.read_text().splitlines()
    # move one nonzero entry of the first column to another row
    lines[4] = " ".join(
        str(int(v) % int(lines[0].split()[0]) + 1) for v in lines[4].split())
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "verify", "--code", str(out))
    assert code == 1
    assert err.startswith("error: ")
    assert "\n" not in err.strip()


def test_verify_catches_k_mismatch(tmp_path, capsys):
    out = build_bundle(tmp_path, capsys, base="rep:2")
    mpath = out / "manifest.json"
    m = json.loads(mpath.read_text())
    m["params"]["k"] = 99
    mpath.write_text(json.dumps(m))
    code, _, err = run(capsys, "verify", "--code", str(out))
    assert code == 1 and "mismatch" in err


def test_export_roundtrip_byte_identical(tmp_path, capsys):
    out = build_bundle(tmp_path, capsys, family="bssh", base="rep:2")
    two = tmp_path / "two"
    code, _, _ = run(capsys, "export", "--code", str(out), "--out", str(two))
    assert code == 0
    for name in ("hx.alist", "hz.alist", "hsx.alist", "hsz.alist",
                 "manifest.json"):
        assert (out / name).read_bytes() == (two / name).read_bytes()


@pytest.mark.parametrize("first, second", [("bsh", "sehgp"),
                                           ("bssh", "ssh")])
def test_rebuild_over_another_bundle_reads_only_listed_files(
        tmp_path, capsys, first, second):
    # the first build leaves hsx.alist and hsz.alist behind; the second
    # bundle's manifest does not list them, so nothing reads them
    out = build_bundle(tmp_path, capsys, family=first, base="rep:2")
    build_bundle(tmp_path, capsys, family=second, base="rep:2")
    assert (out / "hsx.alist").exists()
    code, stdout, err = run(capsys, "verify", "--code", str(out))
    assert (code, err) == (0, ""), err
    assert stdout.startswith("ok: ")
    loaded = css.load_bundle(out)
    assert loaded.hsx is None and loaded.hsz is None
    two = tmp_path / "two"
    code, _, _ = run(capsys, "export", "--code", str(out), "--out", str(two))
    assert code == 0
    assert not (two / "hsx.alist").exists()
    assert not (two / "hsz.alist").exists()


def test_run_manifests_list_only_the_bundle_files(tmp_path, capsys):
    # a bsh bundle leaves hsx.alist and hsz.alist behind in both
    # directories; the sehgp bundle written over it has neither
    bundle = ["hx.alist", "hz.alist", "manifest.json"]
    fresh = build_bundle(tmp_path, capsys, family="bsh", base="rep:2")
    m = json.loads((fresh / "run_manifest.json").read_text())
    assert m["outputs"] == ["hsx.alist", "hsz.alist"] + bundle
    build_bundle(tmp_path, capsys, family="bsh", base="rep:2", name="two")
    out = build_bundle(tmp_path, capsys, family="sehgp", base="rep:2")
    m = json.loads((out / "run_manifest.json").read_text())
    assert m["outputs"] == bundle
    two = tmp_path / "two"
    code, _, err = run(capsys, "export", "--code", str(out), "--out", str(two))
    assert code == 0, err
    m = json.loads((two / "run_manifest.json").read_text())
    assert m["outputs"] == bundle
    assert m["inputs"] == {name: _file_sha256(out / name) for name in bundle}
    sim = tmp_path / "sim.csv"
    code, _, err = run(capsys, "simulate", "--code", str(out), "--p", "0.01",
                       "--trials", "1", "--seed", "1", "--out", str(sim))
    assert code == 0, err
    m = json.loads((sim.parent / "run_manifest.json").read_text())
    assert m["inputs"] == {name: _file_sha256(out / name) for name in bundle}


@pytest.mark.parametrize("files", [None, "hx.alist", ["hx.alist"]])
def test_manifest_without_files_list_is_one_error_line(tmp_path, capsys,
                                                       files):
    out = build_bundle(tmp_path, capsys, base="rep:2")
    mpath = out / "manifest.json"
    m = json.loads(mpath.read_text())
    if files is None:
        del m["files"]
    else:
        m["files"] = files
    mpath.write_text(json.dumps(m))
    for argv in (["verify"], ["params"], ["export", "--out",
                                          str(tmp_path / "e")]):
        code, out_text, err = run(capsys, argv[0], "--code", str(out),
                                  *argv[1:])
        assert code == 1 and out_text == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "files" in err


def test_soundness_csv_schema(tmp_path, capsys):
    out = build_bundle(tmp_path, capsys, family="rsh1", base="rep:2")
    report = tmp_path / "scan.csv"
    code, stdout, _ = run(capsys, "soundness", "--code", str(out), "--t", "2",
                          "--f", "x3over4", "--report", str(report))
    assert code == 0 and "clean" in stdout
    rows = list(csv.reader(open(report)))
    assert rows[0] == ["syndrome_weight", "max_reduced_weight", "bound",
                       "violated"]
    assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
    assert all(r[3] == "0" for r in rows[1:])


def test_soundness_violation_exits_nonzero(tmp_path, capsys):
    # the quadratic bound is too tight at weight 2 for this small instance
    out = build_bundle(tmp_path, capsys, base="rep:2")
    report = tmp_path / "scan.csv"
    code, stdout, _ = run(capsys, "soundness", "--code", str(out), "--t", "2",
                          "--f", "x2over4", "--report", str(report))
    assert code == 1 and "violations" in stdout
    rows = list(csv.reader(open(report)))
    assert any(r[3] == "1" for r in rows[1:])


def test_simulate_deterministic(tmp_path, capsys):
    out = build_bundle(tmp_path, capsys, family="bssh", base="rep:2")
    args = ("simulate", "--code", str(out), "--p", "0.02", "--bias",
            "etaZ:10", "--qmeas", "0.01", "--trials", "10", "--seed", "7")
    c1, s1, _ = run(capsys, *args, "--out", str(tmp_path / "a.csv"))
    c2, s2, _ = run(capsys, *args, "--out", str(tmp_path / "b.csv"))
    assert c1 == c2 == 0
    assert json.loads(s1) == json.loads(s2)
    assert ((tmp_path / "a.csv").read_bytes()
            == (tmp_path / "b.csv").read_bytes())
    summary = json.loads(s1)
    assert summary["trials"] == 10 and summary["seed"] == 7


# simulate on bssh rep:2 at p=0.08 (etaZ:10, qmeas=0.01, 5 trials), where
# most repair and decode searches go to weight 4 and many exhaust it;
# seed 7 is also the digest perfbench/reference.json records
GOLDEN_SIMULATE_HOT = {
    7: "3bf004907e9f7174702dbbcf33bd044a5c545e64e17f859300d74335186d6da6",
    8: "be0ba9550ac5291f0898f7c1a8edafc58f0751d28f67500f4aaf940073cfc963",
}


def test_simulate_golden_hot_regime(tmp_path, capsys):
    out = build_bundle(tmp_path, capsys, family="bssh", base="rep:2")
    for seed, digest in GOLDEN_SIMULATE_HOT.items():
        csv_path = tmp_path / f"hot{seed}.csv"
        code, _, err = run(capsys, "simulate", "--code", str(out), "--p",
                           "0.08", "--bias", "etaZ:10", "--qmeas", "0.01",
                           "--trials", "5", "--seed", str(seed),
                           "--out", str(csv_path))
        assert code == 0, err
        assert _file_sha256(csv_path) == digest, seed


def test_simulate_bad_bias(tmp_path, capsys):
    out = build_bundle(tmp_path, capsys, family="bssh", base="rep:2")
    code, _, err = run(capsys, "simulate", "--code", str(out), "--p", "0.1",
                       "--bias", "etaX:3", "--trials", "1",
                       "--out", str(tmp_path / "x.csv"))
    assert code == 1 and "etaZ" in err
    for bias in ("etaZ:-1", "etaZ:nan"):
        code, _, err = run(capsys, "simulate", "--code", str(out), "--p",
                           "0.1", "--bias", bias, "--trials", "1",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1 and err.startswith("error: eta_z must be >= 0")
        assert "\n" not in err.strip()


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "forge.cfg"
    cfg.write_text("family = hgp\nbase = rep:2  # ring size\nseed = 11\n")
    out = tmp_path / "cfg_build"
    code, _, err = run(capsys, "--config", str(cfg), "build", "--out",
                       str(out))
    assert code == 0, err
    m = json.loads((out / "run_manifest.json").read_text())
    assert m["seed"] == 11


def test_config_defaults_do_not_leak_into_later_calls(tmp_path, capsys):
    # plain calls share one parser; a --config call must not set its
    # defaults on it
    cfg = tmp_path / "forge.cfg"
    cfg.write_text("seed = 11\n")
    code, _, err = run(capsys, "--config", str(cfg), "build", "--family",
                       "hgp", "--base", "rep:2", "--out",
                       str(tmp_path / "with_cfg"))
    assert code == 0, err
    out = build_bundle(tmp_path, capsys, base="rep:2", name="plain")
    m = json.loads((out / "run_manifest.json").read_text())
    assert m["seed"] is None


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("familly = hgp\n")
    code, _, err = run(capsys, "--config", str(cfg), "build", "--base",
                       "rep:2", "--out", str(tmp_path / "x"))
    assert code == 1 and "familly" in err
    code, _, err = run(capsys, "params", "--config")
    assert code == 1 and err.startswith("error: ") and "--config" in err
    assert "\n" not in err.strip()


def test_negative_seed_rejected(tmp_path, capsys):
    # rejected while parsing, before the (missing) bundle is read
    code, _, err = run(capsys, "simulate", "--code", str(tmp_path / "none"),
                       "--p", "0.02", "--trials", "1", "--seed", "-1",
                       "--out", str(tmp_path / "x.csv"))
    assert code == 1 and err.startswith("error: --seed")


@pytest.mark.parametrize("argv, flag", [
    (("build", "--family", "hgp", "--base", "rep:2", "--max-weight", "-2"),
     "--max-weight"),
    (("params", "--family", "hgp", "--base", "rep:2", "--max-weight", "-1"),
     "--max-weight"),
    (("simulate", "--p", "0.02", "--trials", "-3"), "--trials"),
    (("soundness", "--t", "-1"), "--t"),
])
def test_negative_flag_rejected(tmp_path, capsys, argv, flag):
    # rejected while parsing, before the (missing) bundle is read
    command, *rest = argv
    paths = {"build": ("--out", str(tmp_path / "b")),
             "params": (),
             "simulate": ("--code", str(tmp_path / "none"),
                          "--out", str(tmp_path / "x.csv")),
             "soundness": ("--code", str(tmp_path / "none"),
                           "--report", str(tmp_path / "r.csv"))}[command]
    code, out, err = run(capsys, command, *rest, *paths)
    assert code == 1 and out == ""
    # --trials and params --max-weight need a positive value, the rest
    # only a non-negative one; every value below the floor names the floor
    floor = 0 if command in ("build", "soundness") else 1
    assert err == f"error: {flag} must be >= {floor}, got {argv[-1]}\n"
    assert "\n" not in err.strip()
    assert not (tmp_path / "b").exists()


def test_negative_flag_from_config_rejected(tmp_path, capsys):
    cfg = tmp_path / "forge.cfg"
    cfg.write_text("trials = -3\n")
    code, _, err = run(capsys, "--config", str(cfg), "simulate", "--code",
                       str(tmp_path / "none"), "--p", "0.02", "--out",
                       str(tmp_path / "x.csv"))
    assert code == 1 and err == "error: --trials must be >= 1, got -3\n"


@pytest.mark.parametrize("argv, flag", [
    (("params", "--family", "hgp", "--base", "rep:2", "--max-weight", "0"),
     "--max-weight"),
    (("simulate", "--p", "0.02", "--trials", "0", "--code", "none",
      "--out", "x.csv"), "--trials"),
])
def test_zero_flag_rejected(tmp_path, capsys, monkeypatch, argv, flag):
    # params would print a vacuous d=> 0, simulate a rate of 0 trials
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {flag} must be >= 1, got 0\n"
    assert not (tmp_path / "x.csv").exists()


def test_zero_flag_from_config_rejected(tmp_path, capsys):
    cfg = tmp_path / "forge.cfg"
    cfg.write_text("trials = 0\n")
    code, _, err = run(capsys, "--config", str(cfg), "simulate", "--code",
                       str(tmp_path / "none"), "--p", "0.02", "--out",
                       str(tmp_path / "x.csv"))
    assert code == 1 and err == "error: --trials must be >= 1, got 0\n"


def test_memory_error_is_one_line(tmp_path, capsys, monkeypatch):
    def exhausted(family, base):
        raise MemoryError

    monkeypatch.setattr(cli, "build_family", exhausted)
    code, out, err = run(capsys, "build", "--family", "bsh", "--base",
                         "rep:2", "--out", str(tmp_path / "b"))
    assert code == 1 and out == ""
    assert err == "error: MemoryError\n"


def test_threads_flag_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--family", "hgp", "--base", "rep:2",
              "--out", str(tmp_path / "x"), "--threads", "2"])
    assert exc.value.code == 2


def test_bad_base_descriptor(tmp_path, capsys):
    code, _, err = run(capsys, "build", "--family", "hgp", "--base", "rep:x",
                       "--out", str(tmp_path / "x"))
    assert code == 1 and err.startswith("error: ")


# the open repetition code [[1, 1, 0], [0, 1, 1]], cut short or with a
# non-integer token in its last column list
REP3_OPEN = "3 2\n2 2\n1 2 1\n2 2\n1 0\n1 2\n2 0\n1 2\n2 3\n"


@pytest.mark.parametrize("text, message", [
    (REP3_OPEN[:-4], "truncated alist file: "),
    (REP3_OPEN.replace("2 0", "x 0"),
     "invalid literal for int() with base 10: 'x'"),
])
def test_build_rejects_bad_alist_base(tmp_path, capsys, text, message):
    good = tmp_path / "good.alist"
    good.write_text(REP3_OPEN)
    code, _, err = run(capsys, "build", "--family", "hgp", "--base",
                       f"alist:{good}", "--out", str(tmp_path / "g"))
    assert code == 0, err
    path = tmp_path / "base.alist"
    path.write_text(text)
    code, out, err = run(capsys, "build", "--family", "hgp", "--base",
                         f"alist:{path}", "--out", str(tmp_path / "b"))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "b").exists()


def test_xzzx3d_rejects_a_base_that_is_not_a_ring(tmp_path, capsys):
    # xzzx3d is defined by a ring size; an alist of another code must not
    # give the numbers of the ring of its length
    eye = tmp_path / "eye.alist"
    eye.write_text("2 2\n1 1\n1 1\n1 1\n1\n2\n1\n2\n")
    rep3 = tmp_path / "rep3open.alist"
    rep3.write_text(REP3_OPEN)
    for path in (eye, rep3):
        for cmd in (["build", "--out", str(tmp_path / "x")], ["params"]):
            code, out, err = run(capsys, *cmd, "--family", "xzzx3d",
                                 "--base", f"alist:{path}")
            assert code == 1 and out == ""
            assert err == "error: xzzx3d takes a ring size, use --base rep:N\n"
    assert not (tmp_path / "x").exists()


def test_bssh_rejects_a_base_that_is_not_square(tmp_path, capsys):
    # the 2x3 open repetition check: ssh builds it, while bssh's
    # two-copy syndrome checks swap two bands of different heights
    rep3 = tmp_path / "rep3open.alist"
    rep3.write_text(REP3_OPEN)
    code, out, err = run(capsys, "build", "--family", "ssh", "--base",
                         f"alist:{rep3}", "--out", str(tmp_path / "s"))
    assert code == 0 and out.endswith(": n=180 k=32\n"), err
    for cmd in (["build", "--out", str(tmp_path / "b")], ["params"]):
        code, out, err = run(capsys, *cmd, "--family", "bssh", "--base",
                             f"alist:{rep3}")
        assert code == 1 and out == ""
        assert err == "error: bssh needs a square base check matrix, got 2x3\n"
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("before, after, want", [
    (("--seed", "3"), (), 3),
    ((), ("--seed", "3"), 3),
    (("--seed", "3", "--config", "CFG"), (), 3),
    (("--config", "CFG"), ("--seed", "3"), 3),
    (("--config", "CFG"), (), 11),
])
def test_seed_at_either_level_beats_config(tmp_path, capsys, before, after,
                                           want):
    bundle = build_bundle(tmp_path, capsys, family="bssh", base="rep:2")
    cfg = tmp_path / "forge.cfg"
    cfg.write_text("seed = 11\n")
    before = [str(cfg) if a == "CFG" else a for a in before]
    csv_path = tmp_path / "s.csv"
    code, out, err = run(capsys, *before, "simulate", "--code", str(bundle),
                         "--p", "0.05", "--trials", "3", "--out",
                         str(csv_path), *after)
    assert code == 0, err
    assert json.loads(out)["seed"] == want
    m = json.loads((tmp_path / "run_manifest.json").read_text())
    assert m["seed"] == want
    code, ref, _ = run(capsys, "simulate", "--code", str(bundle), "--p",
                       "0.05", "--trials", "3", "--seed", str(want), "--out",
                       str(tmp_path / "ref.csv"))
    assert code == 0 and out == ref
    assert csv_path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out
