"""What importing the package pulls in, and what the eigensolver calls.

Each kernel has one implementation: no module of the package imports a
JIT compiler, so the code that runs is the code that is tested.  And a
codec run pays for no more than it uses: importing the package, the
`encode`, `decode`, `info` and `psnr` commands and the D1 metric load no
scipy, which costs about half a second and 36 MiB; only the logistic fit
loads it, on first use.  Nor do the codec commands load
`concurrent.futures` or `subprocess`.  The eigensolver, the graph
Fourier transforms and the colour conversions call no BLAS or LAPACK
kernel, and the codec leaves every spectrum to `spectral`."""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ggsc
from conftest import child_env, cloud_columns, make_cloud, write_ply
from ggsc import eval as eval_mod
from ggsc.gs_core import load_ply

MODULES = sorted(Path(ggsc.__file__).parent.glob("*.py"))
CODECBENCH = Path(__file__).resolve().parent.parent / "codecbench"


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


def test_modules_found():
    assert {p.name for p in MODULES} >= {"codec.py", "geom_codec.py", "spectral.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_numba_import(path):
    imported = _imported(ast.parse(path.read_text(), filename=str(path)))
    assert not {n for n in imported if n.split(".")[0] == "numba"}


# The bases', the transforms' and the decoded colours' bits must not
# depend on the machine's BLAS or LAPACK, so the functions that build and
# solve a Laplacian, that transform a signal and that convert colours use
# only elementwise ops and sums along fixed axes.  Module -> functions.
SOLVER_FUNCTIONS = {
    "spectral.py": {"laplacian", "_tridiagonalize", "_tql_rotations",
                    "_apply_rotations", "_householder_ql", "_normalize_rows",
                    "eig_sym", "gft", "igft", "_operands", "_sum_products",
                    "forward", "inverse"},
    "colorspace.py": {"sh_rgb_to_yuv", "sh_yuv_to_rgb", "_mix"},
}
VENDOR_KERNELS = {"dot", "matmul", "einsum", "tensordot", "linalg"}


def _vendor_calls(func: ast.FunctionDef) -> list[str]:
    found = []
    for node in ast.walk(func):
        if isinstance(getattr(node, "op", None), ast.MatMult):
            found.append(f"@ at line {node.lineno}")
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if name in VENDOR_KERNELS:
            found.append(f"{name} at line {node.lineno}")
    return found


def test_eigensolver_uses_no_blas():
    for module, names in SOLVER_FUNCTIONS.items():
        path = Path(ggsc.__file__).parent / module
        funcs = {node.name: node for node in ast.parse(path.read_text()).body
                 if isinstance(node, ast.FunctionDef)}
        assert names <= funcs.keys(), module
        for name in sorted(names):
            assert _vendor_calls(funcs[name]) == [], (module, name)
    probe = ast.parse("def f(a):\n    a @= a\n    return a @ np.dot(a, a)\n").body[0]
    assert len(_vendor_calls(probe)) == 3


# The codec hands each run of leaves to `spectral.forward` or `inverse`,
# which solve and drop one chunk's bases at a time: it neither solves a
# spectrum, nor transforms with one, nor reads a basis.
SPECTRAL_INTERNALS = {"gft", "igft", "eig_sym", "graph_spectrum", "graph_spectra",
                      "GraphSpectrum", "basis"}


def test_codec_holds_no_spectrum():
    tree = ast.parse((Path(ggsc.__file__).parent / "codec.py").read_text())
    named = [(name, node.lineno) for node in ast.walk(tree)
             if (name := getattr(node, "id", None) or getattr(node, "attr", None))
             in SPECTRAL_INTERNALS]
    assert named == []
    assert {"forward", "inverse"} <= {node.attr for node in ast.walk(tree)
                                      if isinstance(node, ast.Attribute)}


# Runs in a fresh interpreter: argv[1] is a directory holding scene.ply
# and pairs.csv; the results go to result.json there.
_CHILD = """
import json, sys
from pathlib import Path

import ggsc, ggsc.eval, ggsc.cli
from ggsc.gs_core import load_ply

lazy_at_import = sorted(m for m in ("ggsc.pool", "ggsc.nearest") if m in sys.modules)

root = Path(sys.argv[1])
ply, coded, out = root / "scene.ply", root / "scene.ggsc", root / "out.ply"
codes = [
    ggsc.cli.main(["encode", str(ply), str(coded), "--max-leaf", "32"]),
    ggsc.cli.main(["decode", str(coded), str(out)]),
    ggsc.cli.main(["info", str(coded)]),
]
unused = sorted(m for m in ("concurrent.futures", "subprocess") if m in sys.modules)
codes.append(ggsc.cli.main(["psnr", str(ply), str(coded)]))
d1 = ggsc.eval.geometry_psnr_d1(load_ply(ply.read_bytes()), load_ply(out.read_bytes()))
bd = ggsc.eval.bd_rate([1, 2, 4, 8], [30, 33, 36, 39], [1, 2, 4, 8], [30, 33, 36, 39])
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
fit = ggsc.eval.fit_logistic5(*ggsc.eval.read_pairs_csv((root / "pairs.csv").read_text()))
(root / "result.json").write_text(json.dumps({
    "codes": codes,
    "lazy_at_import": lazy_at_import,
    "scipy_before": before,
    "unused_before": unused,
    "scipy_after": "scipy.optimize" in sys.modules,
    "d1": [d1.mse, d1.peak, d1.psnr_db],
    "bd": bd,
    "fit": [fit.plcc, fit.srcc, fit.rmse, *fit.logistic_params],
}))
"""


def test_codec_commands_load_no_scipy(tmp_path):
    """`import ggsc, ggsc.eval, ggsc.cli` and `ggsc encode|decode|info`
    leave scipy unloaded, and `concurrent.futures` and `subprocess` (about
    16 ms of start-up; only the external geometry backend runs a
    command); the import leaves `ggsc.pool` and `ggsc.nearest`
    uncompiled, since only a call that uses them needs them.  `ggsc psnr`,
    the D1 metric and the BD-rate load no scipy either; the logistic fit,
    its one user, loads `scipy.optimize`.  D1 and the fit return what
    they return in this process."""
    (tmp_path / "scene.ply").write_bytes(write_ply(cloud_columns(make_cloud(80, seed=5))))
    rng = np.random.default_rng(6)
    objective = rng.uniform(20.0, 45.0, 24)
    mos = 1.0 + 4.0 / (1.0 + np.exp(-(objective - 32.0) / 3.0)) + rng.normal(0, 0.2, 24)
    rows = "".join(f"{x!r},{y!r}\n" for x, y in zip(objective.tolist(), mos.tolist()))
    (tmp_path / "pairs.csv").write_text("objective,mos\n" + rows)
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(tmp_path)], env=child_env(),
                          timeout=120, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    child = json.loads((tmp_path / "result.json").read_text())

    assert child["codes"] == [0, 0, 0, 0]
    assert child["lazy_at_import"] == []
    assert child["scipy_before"] == []
    assert child["unused_before"] == []
    assert child["scipy_after"]
    d1 = eval_mod.geometry_psnr_d1(load_ply((tmp_path / "scene.ply").read_bytes()),
                                   load_ply((tmp_path / "out.ply").read_bytes()))
    fit = eval_mod.fit_logistic5(
        *eval_mod.read_pairs_csv((tmp_path / "pairs.csv").read_text()))
    assert child["d1"] == [d1.mse, d1.peak, d1.psnr_db]
    assert child["bd"] == 0.0
    assert child["fit"] == [fit.plcc, fit.srcc, fit.rmse, *fit.logistic_params]


def test_benchmark_tracer_hooks_exist(monkeypatch):
    """The benchmark's tracer wraps codec functions by name: every name it
    installs exists, a traced encode and decode record a span in every
    layer and the partition and coder notes, and removal leaves no
    wrapper behind."""
    monkeypatch.syspath_prepend(str(CODECBENCH))
    spec = importlib.util.spec_from_file_location("codecbench_run", CODECBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    monkeypatch.setattr(ggsc.codec, "_usable_cpus", lambda: 1)
    ops = run.Ops(ggsc, 64, ggsc.save_ply(make_cloud(64, seed=7)), ggsc.CodecParams(max_leaf=8))
    tracer = run.Tracer()
    try:
        run.install_tracer(tracer, ggsc)
        assert ops.encode(threads=2, tracer=tracer) is not None
        assert ops.decode(tracer=tracer) is not None
    finally:
        tracer.remove()
    assert not ops.errors and ops.check_failures == []
    names = {name for name, *_ in tracer.spans}
    assert {name.split(".")[0] for name in names} >= set(run.LAYERS)
    assert {tracer.spans[i][0] for i in tracer.notes} >= {"partition.kdtree_split",
                                                          "entropy.aac_encode"}
    assert run.leftover_wrappers(run._ggsc_modules(ggsc)) == []
