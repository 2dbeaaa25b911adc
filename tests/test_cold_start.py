"""A fresh process that imports, builds, reads, writes and solves loads of
scipy only its two compiled kernel modules, from their files, and imports
no scipy module; the kernels, and so the bits, are the same whichever way
they were loaded.

Each test runs its code in a new interpreter, since this one has imported
scipy already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pdhg_lp as pl

SRC = str(Path(pl.__file__).parents[1])


def run(code):
    """Run ``code`` in a fresh interpreter that imports the package from
    this checkout; return the last line it prints."""
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip().splitlines()[-1]


SCIPY_MODULES = "sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.'))"

WHOLE_PATH = f"""
import contextlib, io, os, sys, tempfile
import pdhg_lp as pl, pdhg_lp.cli as cli

problem = pl.generate_pagerank(pl.PagerankSpec(num_nodes=3_000))
text = pl.write_mps(problem)
parsed = pl.parse_mps(text)
fine = pl.TerminationCriteria(tol_optimal=1e-4)
default = pl.solve(parsed, pl.SolverConfig(termination=fine))
fixed = pl.solve(parsed, pl.SolverConfig(termination=fine, step=pl.StepPolicy(mode="fixed")))
big = pl.generate_pagerank(pl.PagerankSpec(num_nodes=30_000))
assert len(pl.to_saddle(big).K.row_blocks()) == 2
split = pl.solve(big, pl.SolverConfig(termination=fine))
pl.render_json(split)
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    path = os.path.join(tmp, "toy.mps")
    assert cli.main(["generate", "toy", "--out", path]) == 0
    assert cli.main(["solve", path]) == 0
print([r.status for r in (default, fixed, split)], {SCIPY_MODULES})
"""


def test_a_whole_process_loads_only_the_two_kernel_modules():
    # import, generate, write, read, solve under the default and the fixed
    # step, a two-block solve, a report and the CLI: no scipy.sparse,
    # scipy.linalg or scipy._lib, nor scipy itself, nor even the two
    # compiled modules, which are loaded but not entered (sparse._load_file)
    statuses, modules = run(WHOLE_PATH).split("] ")
    assert statuses.count("optimal") == 3, statuses
    assert modules == "[]"
    assert run(LOADED) == "['scipy.linalg._flapack', 'scipy.sparse._sparsetools']"


LOADED = """
import numpy as np
import pdhg_lp as pl
pl.solve(pl.generate_pagerank(pl.PagerankSpec(num_nodes=300)))
print(sorted(module.__name__ for module in pl.sparse._loaded.values()))
"""


KERNELS_AFTER_A_SOLVE = """
import sys
import numpy as np
import pdhg_lp as pl
from pdhg_lp import sparse

pl.solve(pl.generate_pagerank(pl.PagerankSpec(num_nodes=300)))
sparsetools, flapack = (sparse._loaded[name] for name in ("scipy.sparse._sparsetools", "scipy.linalg._flapack"))
import scipy.sparse
import scipy.sparse._sparsetools
import scipy.linalg
from scipy.linalg import lapack
same = [
    scipy.sparse._sparsetools.csr_matvec is sparse.csr_matvec is sparsetools.csr_matvec,
    scipy.sparse._sparsetools.csr_sum_duplicates is sparsetools.csr_sum_duplicates,
    lapack.dstebz is flapack.dstebz and lapack.dstein is flapack.dstein,
    scipy.linalg._flapack.dstebz is flapack.dstebz,
]
product = scipy.sparse.csr_matrix(np.array([[1.0, 2.0], [0.0, 3.0]])) @ np.array([1.0, 1.0])
print(all(same), product.tolist())
"""


def test_scipy_imported_after_a_solve_takes_the_same_kernels():
    # scipy's packages, imported later, have their compiled modules as
    # attributes, and the kernels are the very objects the solve ran
    assert run(KERNELS_AFTER_A_SOLVE) == "True [3.0, 3.0]"


BITS = """
import sys
{setup}
import numpy as np
import pdhg_lp as pl

rng = np.random.default_rng(5)
dense = rng.standard_normal((40, 30)) * (rng.random((40, 30)) < 0.3)
mat = pl.SparseMatrix(dense)
est = pl.spectral_norm_estimate(mat, tol=1e-10)
big = pl.generate_pagerank(pl.PagerankSpec(num_nodes=30_000)).ineq_matrix
x = rng.standard_normal(30_000)
print(
    "scipy.sparse" in sys.modules,
    mat.matvec(rng.standard_normal(30)).tobytes().hex(),
    mat.rmatvec(rng.standard_normal(40)).tobytes().hex(),
    est.value.hex(),
    big.data.tobytes().hex()[:64],
    big.rmatvec(big.matvec(x)).tobytes().hex()[:64],
)
"""

NO_FILE = """
import importlib.util
find_spec = importlib.util.find_spec
importlib.util.find_spec = lambda name, package=None: None if name == "scipy" else find_spec(name, package)
"""


def test_without_the_kernel_files_the_normal_import_gives_the_same_bits():
    direct = run(BITS.format(setup="")).split()
    fallback = run(BITS.format(setup=NO_FILE)).split()
    assert (direct[0], fallback[0]) == ("False", "True")  # the lookup found nothing: the normal import ran
    assert direct[1:] == fallback[1:]
