import argparse
import ast
import inspect
import json
import subprocess
import sys

import numpy as np
import pytest

from hklab import cli
from hklab.fiber import (holomorphic_symplectic, standard_fiber,
                         wedge_operator)

from .oracles import flux_zero_one_star_spectrum


def _omegabar(fiber):
    """conj(Omega) as an element of the algebra: the 2-form wedged with 1."""
    return wedge_operator(fiber, holomorphic_symplectic(fiber).conj()).matrix[:, 0]


def run_cli(*args, **kw):
    return subprocess.run([sys.executable, "-m", "hklab.cli", *args],
                          capture_output=True, text=True, **kw)


def test_verify_fiber_suite_passes(tmp_path):
    out = tmp_path / "report.json"
    r = run_cli("verify", "--suite", "fiber", "--n", "1", "--seed", "7",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    report = json.loads(out.read_text())
    assert len(report) >= 7
    assert all(entry["verdict"] == "pass" for entry in report)
    ids = {entry["check_id"] for entry in report}
    assert {"prop2.1-closure", "eq2.4", "lemma3.11-weil"} <= ids


def test_verify_logs_each_check_time_to_stderr(tmp_path, capsys):
    # one stderr line a check with its id, n and wall time; stdout keeps
    # only the summary lines and the artifact holds no timing
    from hklab.symmetry import check_ids
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--suite", "fiber", "--n", "1", "--seed", "7",
                     "--out", str(out)]) == 0
    captured = capsys.readouterr()
    logged = [line for line in captured.err.splitlines()
              if line.startswith("check ")]
    assert [line.split()[1] for line in logged] == check_ids()
    assert all(line.split()[2] == "n=1:" and line.endswith(" ms")
               and float(line.split()[3]) >= 0.0 for line in logged)
    assert all(line.startswith("[pass] ")
               for line in captured.out.splitlines())
    assert all(e["runtime_ms"] == 0 for e in json.loads(out.read_text()))


def test_verify_torus_suite_includes_theorem_entries(tmp_path):
    out = tmp_path / "report.json"
    r = run_cli("verify", "--suite", "torus", "--N", "3", "--m", "1",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    ids = [e["check_id"] for e in json.loads(out.read_text())]
    assert {"thm1.1", "thm3.1", "cor1.2", "thm3.10"} <= set(ids)


def test_verify_rejects_small_lattice():
    r = run_cli("verify", "--suite", "torus", "--N", "2")
    assert r.returncode == 2
    assert "N >= 3" in r.stderr


def test_unknown_flag_is_config_error():
    r = run_cli("verify", "--suite", "fiber", "--bogus", "1")
    assert r.returncode == 2


def test_spectrum_row_counts_and_values(tmp_path):
    out = tmp_path / "spec.csv"
    r = run_cli("spectrum", "--N", "4", "--m", "1", "--k", "16",
                "--zetas", "axes", "--out", str(out))
    assert r.returncode == 0, r.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "zeta_i,zeta_j,zeta_k,slice,rank,eigenvalue"
    assert len(lines) == 1 + 6 * 16
    ranks = [int(ln.split(",")[4]) for ln in lines[1:]]
    assert ranks[:16] == list(range(16))


def test_spectrum_flat_ground_mode(tmp_path):
    out = tmp_path / "spec.csv"
    r = run_cli("spectrum", "--N", "3", "--m", "0", "--k", "1",
                "--zetas", "j", "--out", str(out))
    assert r.returncode == 0, r.stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert abs(float(lines[1].split(",")[5])) < 1e-10


def test_byte_determinism(tmp_path):
    """Identical config and seed give byte-identical artifacts."""
    pairs = []
    for tag in ("a", "b"):
        csv = tmp_path / f"spec_{tag}.csv"
        rep = tmp_path / f"rep_{tag}.json"
        idx = tmp_path / f"idx_{tag}.json"
        assert run_cli("spectrum", "--N", "3", "--m", "1", "--k", "8",
                       "--zetas", "axes", "--seed", "11",
                       "--out", str(csv)).returncode == 0
        assert run_cli("verify", "--suite", "fiber", "--seed", "11",
                       "--out", str(rep)).returncode == 0
        assert run_cli("index", "--N", "3", "--m", "1", "--seed", "11",
                       "--zetas", "j", "--out", str(idx)).returncode == 0
        pairs.append((csv.read_bytes(), rep.read_bytes(), idx.read_bytes()))
    assert pairs[0] == pairs[1]


def test_index_values(tmp_path):
    for m, expected in ((0, "0"), (1, "1")):
        r = run_cli("index", "--N", "4", "--m", str(m), "--zetas", "j")
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines()[0].strip() == expected


def test_index_reports_counts():
    r = run_cli("index", "--N", "4", "--m", "1", "--zetas", "j")
    assert "even kernel count: 1, odd kernel count: 0" in r.stdout


def test_decompose_omegabar(tmp_path):
    fiber = standard_fiber(1)
    v = _omegabar(fiber)
    src = tmp_path / "omegabar.txt"
    src.write_text("\n".join(str(complex(c)) for c in v))
    r = run_cli("decompose", "--n", "1", "--input", str(src))
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["components"] == [
        {"q": 0, "i": 1, "norm": "1.000000000000e+00"}]
    assert float(payload["reconstruction_residual"]) < 1e-11


def test_decompose_primitive_single_term(tmp_path, rng):
    from hklab.reptheory import antiholomorphic_triple, primitive_decompose
    fiber = standard_fiber(1)
    tri = antiholomorphic_triple(fiber)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    t = next(t for (q, i, t) in primitive_decompose(fiber, v, tri) if i == 0)
    src = tmp_path / "prim.txt"
    src.write_text("\n".join(str(complex(c)) for c in t))
    r = run_cli("decompose", "--n", "1", "--input", str(src))
    payload = json.loads(r.stdout)
    assert len(payload["components"]) == 1
    assert payload["components"][0]["i"] == 0


def test_decompose_zero_element(tmp_path):
    src = tmp_path / "zero.txt"
    src.write_text("0 " * 16)
    r = run_cli("decompose", "--n", "1", "--input", str(src))
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == {
        "components": [], "reconstruction_residual": "0.000000000000e+00"}


def test_decompose_parse_failure(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not numbers at all")
    assert run_cli("decompose", "--n", "1", "--input", str(bad)).returncode == 2
    short = tmp_path / "short.txt"
    short.write_text("1 2 3")
    assert run_cli("decompose", "--n", "1",
                   "--input", str(short)).returncode == 2
    for token in ("nan", "inf", "-inf+1j"):
        src = tmp_path / "nonfinite.txt"
        src.write_text(" ".join([token] + ["0"] * 15))
        r = run_cli("decompose", "--n", "1", "--input", str(src), timeout=60)
        assert r.returncode == 2, (token, r.stdout, r.stderr)


BRANE_ABA_TRUE = "1 0 0 0\n0 0 1 0\nF\n0 0\n0 0\n"
BRANE_FLUX = ("1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\nF\n"
              "0 0 1 0\n0 0 0 -1\n-1 0 0 0\n0 1 0 0\n")
BRANE_FALSE = "1 0.3 -0.2 0\n0 0.1 1 0.5\nF\n0 0\n0 0\n"


@pytest.mark.parametrize("content,expected", [
    (BRANE_ABA_TRUE, True),
    (BRANE_FLUX, True),
    (BRANE_FALSE, False),
])
def test_brane_check_verdicts(tmp_path, content, expected):
    src = tmp_path / "brane.txt"
    src.write_text(content)
    r = run_cli("brane-check", "--input", str(src), "--family", "ABA")
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["hyperbrane"] is expected
    assert len(payload["defects"]) == 26


def test_brane_check_parse_failure(tmp_path):
    src = tmp_path / "brane.txt"
    src.write_text("1 0 0 0\n")  # missing F block
    assert run_cli("brane-check", "--input", str(src),
                   "--family", "ABA").returncode == 2
    src.write_text("1 0 0 0\n0 0 1 0\nF\n0 nan\n0 0\n")
    r = run_cli("brane-check", "--input", str(src), "--family", "ABA")
    assert r.returncode == 2, r.stderr


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N = 3\nm = 0\nk = 2\nzetas = j\n")
    out = tmp_path / "spec.csv"
    r = run_cli("spectrum", "--config", str(cfg), "--k", "1",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 2  # flag k=1 beats config k=2
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key = 5\n")
    assert run_cli("spectrum", "--config", str(bad)).returncode == 2


def _library_fault(*args, **kwargs):
    raise ValueError("library fault")


@pytest.mark.parametrize("argv,code,message", [
    pytest.param(["spectrum", "--N", "3", "--m", "1", "--k", "2",
                  "--zetas", "list:0,0,0"], 2, "zeta '0,0,0'",
                 id="zero-zeta"),
    pytest.param(["spectrum", "--N", "3", "--m", "1", "--k", "2",
                  "--zetas", "list:nan,0,1"], 2, "zeta 'nan,0,1'",
                 id="nan-zeta"),
    pytest.param(["spectrum", "--N", "3", "--m", "1", "--k", "2",
                  "--zetas", "list:inf,0,0"], 2, "zeta 'inf,0,0'",
                 id="inf-zeta"),
    pytest.param(["verify", "--suite", "torus", "--N", "3", "--m", "0"], 2,
                 "m != 0", id="torus-flux-free"),
    pytest.param(["verify", "--suite", "fiber", "--tol", "0"], 1,
                 "failed checks", id="tol-zero"),
    pytest.param(["verify", "--suite", "fiber", "--tol", "-1"], 2,
                 "tol must be >= 0", id="tol-negative"),
    pytest.param(["verify", "--suite", "fiber"], None, "library fault",
                 id="program-fault-propagates"),
])
def test_exit_codes(monkeypatch, capsys, argv, code, message):
    """Exit 2 is for input errors only; a library fault is not one."""
    if code is None:
        monkeypatch.setattr(cli, "verify_identity", _library_fault)
        with pytest.raises(ValueError, match=message):
            cli.main(argv)
        return
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert message in captured.out + captured.err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--N", "3", "--m", "1", "--k", "2", "--zetas", "j"],
    ["verify", "--suite", "fiber"],
    ["verify", "--suite", "all"],
    ["index", "--N", "3", "--m", "1", "--zetas", "j"],
], ids=["spectrum", "verify-fiber", "verify-all", "index"])
def test_unwritable_out_is_config_error(tmp_path, capsys, argv):
    """An --out path in a missing directory, or one that is a directory,
    exits 2 before any work: nothing is printed but the error."""
    for out in (tmp_path / "missing" / "artifact", tmp_path):
        assert cli.main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: cannot write output")


@pytest.mark.parametrize("spec,want", [
    ("3e-200,4e-200,0", (0.6, 0.8, 0.0)),
    ("1e308,1e308,0", (2 ** -0.5, 2 ** -0.5, 0.0)),
], ids=["tiny", "huge"])
def test_zeta_list_normalizes_any_finite_direction(tmp_path, spec, want):
    """A finite non-zero direction is normalized even where its squared
    norm underflows or overflows."""
    (zeta,) = cli._zeta_list("list:" + spec)
    assert np.allclose(zeta.as_array(), want, rtol=0.0, atol=1e-15)
    out = tmp_path / "spec.csv"
    assert cli.main(["spectrum", "--N", "3", "--m", "1", "--k", "2",
                     "--zetas", "list:" + spec, "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3


def test_spectrum_builds_no_lattice_operator(monkeypatch, tmp_path):
    """`hklab spectrum` on a plane-separable field solves plane Laplacians:
    it builds no site Laplacian and no lattice operator."""
    from hklab import torus

    def fail(*args, **kwargs):
        raise AssertionError("built a site Laplacian or lattice operator")

    monkeypatch.setattr(torus.LatticeGaugeField, "laplacian", property(fail))
    monkeypatch.setattr(torus, "lichnerowicz_laplacian", fail)
    monkeypatch.setattr(torus.LatticeOperator, "__init__", fail)
    out = tmp_path / "spec.csv"
    assert cli.main(["spectrum", "--N", "4", "--m", "1", "--k", "12",
                     "--zetas", "axes", "--workers", "1",
                     "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    assert len(rows) == 6 * 12
    oracle = flux_zero_one_star_spectrum(4, 1, 12)
    for start in range(0, len(rows), 12):
        w = np.array([float(r[5]) for r in rows[start:start + 12]])
        assert np.abs(w - oracle).max() < 1e-9


def test_spectrum_solves_the_field_planes_once(tmp_path, plane_solves):
    """Every zeta of `--zetas full` shares the field's one plane solve."""
    out = tmp_path / "spec.csv"
    assert cli.main(["spectrum", "--N", "4", "--m", "1", "--k", "8",
                     "--zetas", "full", "--workers", "1",
                     "--out", str(out)]) == 0
    zetas = len(cli._zeta_list("full"))
    assert len(out.read_text().splitlines()) == 1 + zetas * 8
    assert len(plane_solves) == 1


def test_spectrum_calls_share_one_field_and_one_parser(monkeypatch, tmp_path,
                                                       plane_solves):
    """Two in-process `spectrum` calls on one (N, m) make one plane solve
    and one parser, and write the bytes of a cold `python -m hklab.cli`."""
    roots = []
    init = argparse.ArgumentParser.__init__

    def spy(parser, *args, **kwargs):
        roots.append(kwargs.get("prog"))
        init(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    cli.build_parser.cache_clear()
    argv = ["spectrum", "--N", "5", "--m", "-1", "--k", "7",
            "--zetas", "list:1,2,3;0,0,-1", "--workers", "1", "--out"]
    outs = []
    for name in ("a.csv", "b.csv"):
        assert cli.main(argv + [str(tmp_path / name)]) == 0
        outs.append((tmp_path / name).read_bytes())
    assert len(plane_solves) == 1
    assert roots.count("hklab") == 1
    r = run_cli(*argv, str(tmp_path / "cold.csv"))
    assert r.returncode == 0, r.stderr
    assert outs[0] == outs[1] == (tmp_path / "cold.csv").read_bytes()


def test_spectrum_calls_share_one_zeta_sample(monkeypatch, tmp_path):
    """A named sample is built once per process: two `--zetas fibonacci`
    runs make one `fibonacci_sphere` call and write the bytes of a cold
    `python -m hklab.cli`."""
    from hklab import quaternions

    calls = []
    sphere = quaternions.fibonacci_sphere

    def spy(count):
        calls.append(count)
        return sphere(count)

    quaternions._named_sample.cache_clear()
    monkeypatch.setattr(quaternions, "fibonacci_sphere", spy)
    argv = ["spectrum", "--N", "4", "--m", "1", "--k", "6",
            "--zetas", "fibonacci", "--workers", "1", "--out"]
    outs = []
    for name in ("a.csv", "b.csv"):
        assert cli.main(argv + [str(tmp_path / name)]) == 0
        outs.append((tmp_path / name).read_bytes())
    assert calls == [20]
    r = run_cli(*argv, str(tmp_path / "cold.csv"))
    assert r.returncode == 0, r.stderr
    assert outs[0] == outs[1] == (tmp_path / "cold.csv").read_bytes()


def test_spectrum_bytes_do_not_depend_on_pool_size(tmp_path):
    """The pool's threads share one field's cached plane spectra; one
    worker and three, switched between often, write the same bytes."""
    outs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in ("1", "3"):
            out = tmp_path / f"spec{workers}.csv"
            assert cli.main(["spectrum", "--N", "4", "--m", "1", "--k", "8",
                             "--zetas", "full", "--workers", workers,
                             "--out", str(out)]) == 0
            outs.append(out.read_bytes())
    finally:
        sys.setswitchinterval(interval)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("zetas,workers", [("j", "4"), ("axes", "8")])
def test_spectrum_bytes_do_not_depend_on_the_chunks(tmp_path, zetas,
                                                     workers):
    """More workers than zetas, or chunks of one zeta, write the bytes of
    one sweep over them all."""
    outs = []
    for w in ("1", workers):
        out = tmp_path / f"spec{w}.csv"
        assert cli.main(["spectrum", "--N", "4", "--m", "2", "--k", "12",
                         "--zetas", zetas, "--workers", w,
                         "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("workers", [1, 4, 8, 100])
def test_pool_gets_one_contiguous_chunk_a_worker(monkeypatch, tmp_path,
                                                 workers):
    """The pool receives at most min(workers, #zetas) tasks, none empty,
    which are the zetas in order."""
    tasks = []

    class Pool(cli.ThreadPoolExecutor):
        def map(self, fn, chunks):
            tasks.append(list(chunks))
            return super().map(fn, tasks[-1])

    monkeypatch.setattr(cli, "ThreadPoolExecutor", Pool)
    for spec in ("j", "axes", "full"):
        tasks.clear()
        assert cli.main(["spectrum", "--N", "3", "--m", "1", "--k", "2",
                         "--zetas", spec, "--workers", str(workers),
                         "--out", str(tmp_path / "spec.csv")]) == 0
        zetas = cli._zeta_list(spec)
        [chunks] = tasks
        assert 1 <= len(chunks) <= min(workers, len(zetas))
        assert all(chunks)
        assert [z for chunk in chunks for z in chunk] == zetas


@pytest.mark.parametrize("command", ["spectrum", "index"])
@pytest.mark.parametrize("zetas", ["bogus", "list:0,0,0"])
def test_bad_zetas_exit_before_the_field_is_built(monkeypatch, capsys,
                                                  tmp_path, command, zetas):
    def fail(*args, **kwargs):
        raise AssertionError("built the gauge field")

    monkeypatch.setattr(cli, "build_gauge_field", fail)
    assert cli.main([command, "--n", "2", "--N", "6", "--zetas", zetas,
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


def test_spectrum_paths_build_no_projector(monkeypatch, tmp_path):
    """`dirac_index` and `hklab spectrum` take their slices from the minors
    of a (0, 1)-frame: they build no bidegree projector and take no eigh
    of a matrix as wide as the fiber algebra (16 at n = 1)."""
    from hklab import fiber, torus

    def fail(*args, **kwargs):
        raise AssertionError("built a bidegree projector")

    eigh = np.linalg.eigh

    def narrow_eigh(a, *args, **kwargs):
        assert np.shape(a)[-1] < 16, "eigendecomposed a fiber-wide matrix"
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(fiber, "bidegree_projectors", fail)
    monkeypatch.setattr(torus, "bidegree_projectors", fail)
    monkeypatch.setattr(np.linalg, "eigh", narrow_eigh)
    field = torus.build_gauge_field(torus.LatticeSpec(1, 4), 1)
    for zeta in cli._zeta_list("axes"):
        assert torus.dirac_index(field, zeta).value == 1
    out = tmp_path / "spec.csv"
    assert cli.main(["spectrum", "--N", "4", "--m", "1", "--k", "12",
                     "--zetas", "axes", "--workers", "1",
                     "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 6 * 12


def test_index_honours_k(tmp_path):
    """--k (or a config-file k) reaches dirac_index; k = 2 ends the even
    list inside the 4-fold cluster, so the index is indeterminate."""
    argv = ["index", "--N", "4", "--m", "2", "--zetas", "j"]
    assert cli.main(argv) == 0
    assert cli.main(argv + ["--k", "2"]) == 3
    cfg = tmp_path / "k.cfg"
    cfg.write_text("k = 2\n")
    assert cli.main(argv + ["--config", str(cfg)]) == 3


@pytest.mark.parametrize("m", [0, 1])
def test_index_default_window_on_T8(m, capsys):
    """n = 2 without --k: the default window grows with n, so the index
    is determinate at m = 0 (8 + 8 zero modes) and m = 1."""
    argv = ["index", "--n", "2", "--N", "4", "--m", str(m), "--zetas", "j"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == str(m)


def test_verify_suite_from_config_file(tmp_path):
    from hklab.symmetry import check_ids
    cfg = tmp_path / "fiber.cfg"
    cfg.write_text("suite = fiber\n")
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--config", str(cfg), "--N", "3",
                     "--out", str(out)]) == 0
    ids = [e["check_id"] for e in json.loads(out.read_text())]
    assert ids == list(check_ids()) and len(ids) == 7
    cfg.write_text("suite = everything\n")
    assert cli.main(["verify", "--config", str(cfg)]) == 2


_REQUIRED = {"decompose": ["--input", "element.txt"],
             "brane-check": ["--input", "brane.txt", "--family", "ABA"]}


@pytest.mark.parametrize("command,key", [
    pytest.param(command, key, id=f"{command}-{key}")
    for command, reads in cli._READS.items()
    for key in cli._SETTINGS if key not in (*reads, "out")])
def test_unread_setting_is_no_flag(command, key, capsys):
    """A subcommand takes only the flags it reads: the flag of any other
    setting is unknown to argparse."""
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *_REQUIRED.get(command, []), f"--{key}", "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{key} 1" in capsys.readouterr().err


def test_parser_registers_only_read_flags():
    """36 flags: the settings of `_READS`, plus --out, --config and the
    input files."""
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    total = 0
    for command, p in subparsers.choices.items():
        flags = {f for a in p._actions for f in a.option_strings}
        assert flags - {"-h", "--help"} == {
            *(f"--{key}" for key in cli._READS[command]), "--out",
            "--config", *_REQUIRED.get(command, [])[::2]}
        total += len(flags) - 2
    assert total == 36


def test_each_subcommand_reads_exactly_its_settings():
    """The `cfg[...]` keys each `cmd_*` reads are its `_READS` and `out`."""
    tree = ast.parse(inspect.getsource(cli))
    commands = {node.name[4:].replace("_", "-"): node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name.startswith("cmd_")}
    assert set(commands) == set(cli._READS)
    for command, node in commands.items():
        read = {ast.literal_eval(sub.slice) for sub in ast.walk(node)
                if isinstance(sub, ast.Subscript)
                and isinstance(sub.value, ast.Name) and sub.value.id == "cfg"}
        assert read == {*cli._READS[command], "out"}, command


def _element_and_brane(tmp_path):
    fiber = standard_fiber(1)
    v = _omegabar(fiber)
    element = tmp_path / "omegabar.txt"
    element.write_text("\n".join(str(complex(c)) for c in v))
    brane = tmp_path / "brane.txt"
    brane.write_text(BRANE_ABA_TRUE)
    return element, brane


def test_unread_config_keys_are_ignored(tmp_path, capsys):
    """A shared config file may set what a subcommand does not read:
    out-of-range N, k, seed and suite leave decompose and brane-check (and
    suite alone spectrum) as they are, and exit 2 where they are read."""
    element, brane = _element_and_brane(tmp_path)
    bad = {"N": "2", "k": "0", "seed": "-1", "suite": "everything"}
    shared = tmp_path / "shared.cfg"
    shared.write_text("".join(f"{key} = {val}\n" for key, val in bad.items()))
    suite = tmp_path / "suite.cfg"
    suite.write_text("suite = everything\n")
    runs = [(["decompose", "--n", "1", "--input", str(element)], shared),
            (["brane-check", "--input", str(brane), "--family", "ABA"], shared),
            (["spectrum", "--N", "3", "--m", "1", "--k", "2", "--zetas", "j"],
             suite)]
    for argv, config in runs:
        assert cli.main(argv) == 0
        want = capsys.readouterr().out
        assert cli.main([*argv, "--config", str(config)]) == 0
        assert capsys.readouterr().out == want
    for key, val in bad.items():
        config = tmp_path / f"{key}.cfg"
        config.write_text(f"{key} = {val}\n")
        command = "verify" if key == "suite" else "spectrum"
        assert cli.main([command, "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key} ")


def test_index_tau_and_shared_config_key(tmp_path, capsys):
    out = tmp_path / "idx.json"
    argv = ["index", "--N", "4", "--m", "1", "--zetas", "j"]
    assert cli.main([*argv, "--tau", "0.3", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "1"
    payload = json.loads(out.read_text())
    assert payload["params"]["tau"] == "3.000000000000e-01"
    assert payload["per_zeta"][0]["determinate"] is True
    # config files are shared by the subcommands: a tau key stays accepted
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tau = 0.9\n")
    assert cli.main(["spectrum", "--N", "3", "--m", "1", "--k", "2",
                     "--zetas", "j", "--config", str(cfg),
                     "--out", str(tmp_path / "spec.csv")]) == 0


@pytest.mark.parametrize("value", ["abc", "0"])
def test_workers_reach_only_pooled_subcommands(monkeypatch, tmp_path,
                                               capsys, value):
    """HKLAB_WORKERS is read by spectrum only: verify, index, decompose
    and brane-check have no pool and ignore it."""
    element, brane = _element_and_brane(tmp_path)
    runs = [["verify", "--suite", "fiber"],
            ["index", "--N", "4", "--m", "2", "--zetas", "j"],
            ["decompose", "--n", "1", "--input", str(element)],
            ["brane-check", "--input", str(brane), "--family", "ABA"]]
    monkeypatch.delenv("HKLAB_WORKERS", raising=False)
    want = []
    for argv in runs:
        assert cli.main(argv) == 0
        want.append(capsys.readouterr().out)
    monkeypatch.setenv("HKLAB_WORKERS", value)
    for argv, expected in zip(runs, want):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == expected
    # the pooled subcommand still rejects it
    assert cli.main(["spectrum", "--N", "3", "--m", "1", "--k", "2",
                     "--zetas", "j"]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("source", ["flag", "config", "env"])
def test_workers_zero_is_rejected_from_every_source(monkeypatch, tmp_path,
                                                    capsys, source):
    """An explicit workers = 0 reaches the check whether it comes from the
    flag, the config file or HKLAB_WORKERS; only an unset value falls back
    to the environment or the CPU count."""
    argv = ["spectrum", "--N", "3", "--m", "1", "--k", "2", "--zetas", "j",
            "--out", str(tmp_path / "spec.csv")]
    monkeypatch.delenv("HKLAB_WORKERS", raising=False)
    if source == "flag":
        argv += ["--workers", "0"]
    elif source == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("workers = 0\n")
        argv += ["--config", str(cfg)]
    else:
        monkeypatch.setenv("HKLAB_WORKERS", "0")
    assert cli.main(argv) == 2
    assert "workers >= 1 required" in capsys.readouterr().err
    assert not (tmp_path / "spec.csv").exists()


# Run in a fresh interpreter: argv[1] is a spectrum output path, argv[2] a
# decompose input file.
_DENSE_PATHS = """
import sys

import hklab
from hklab import cli
from hklab.fiber import standard_fiber
from hklab.quaternions import QUAT_K, TwistorPoint, ZETA_J
from hklab.symmetry import check_ids, verify_identity
from hklab.torus import (LatticeSpec, build_gauge_field, dirac_index,
                         exact_symmetry_details, lattice_dirac,
                         theorem_3_10_details)


def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))


fiber = standard_fiber(1)
assert all(verify_identity(cid, fiber).verdict for cid in check_ids())
field = build_gauge_field(LatticeSpec(1, 6), 1)
for zeta in (ZETA_J, TwistorPoint(0.48, 0.6, 0.64)):
    assert dirac_index(field, zeta).value == 1
assert cli.main(["spectrum", "--N", "4", "--m", "1", "--k", "8",
                 "--zetas", "axes", "--workers", "1",
                 "--out", sys.argv[1]]) == 0
assert cli.main(["decompose", "--n", "1", "--input", sys.argv[2]]) == 0
assert not scipy_modules(), scipy_modules()[:3]
# the operator identities take their norms from the closed-form Gram table
field = build_gauge_field(LatticeSpec(1, 3), 1)
det = theorem_3_10_details(field)
det.update(exact_symmetry_details(field, TwistorPoint(0.48, 0.6, 0.64),
                                  QUAT_K))
assert max(det.values()) < 1e-10, det
assert not scipy_modules(), scipy_modules()[:3]
# an assembled lattice operator imports scipy where it forms a sparse matrix
assert lattice_dirac(field, ZETA_J).matrix.nnz > 0
assert "scipy.sparse" in scipy_modules()
"""


def test_dense_paths_never_load_scipy(tmp_path):
    """The import, the fiber registry, plane-separable indices, the
    thm. 3.10 and exact-symmetry identities and the spectrum and decompose
    subcommands run on numpy alone; an assembled lattice operator still
    works after its lazy scipy import."""
    element, _brane = _element_and_brane(tmp_path)
    r = subprocess.run([sys.executable, "-c", _DENSE_PATHS,
                        str(tmp_path / "spec.csv"), str(element)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
