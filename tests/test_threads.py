"""Fits give the same scatter at one and at two BLAS threads.

Each run fits the same inputs in a fresh interpreter whose OpenBLAS thread
count is set before numpy loads, and prints one sha256 per scatter. The
fits are the largest of each kind that the benchmark runs: a K=15 linear
Toeplitz fit, a 10 x 8 Kronecker fit with a Toeplitz B (K=80, N=4), a
rank-one DOA fit and a K=40 spiked fit with 5 spikes (N=45).
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

FITS = r"""
import hashlib

import numpy as np

import structcov as sc


def seed(tag):
    return np.random.SeedSequence([31, tag])


ar = sc.sample_elliptical(sc.ar_cov(15, 0.8), 100, seed(1))
kron = sc.sample_elliptical(np.kron(np.eye(10), sc.ar_cov(8, 0.8)), 4, seed(2))
doa = sc.sample_elliptical(
    sc.doa_cov(15, [-10.0, 10.0, 15.0, 35.0, 40.0], [1.0] * 5, 0.1), 20, seed(3)
)
spiked = sc.sample_elliptical(sc.spiked_cov(40, 5, 0.01, rng=seed(4)), 45, seed(5))
results = [
    sc.estimate_linear(sc.toeplitz_basis(15), ar),
    sc.estimate_kronecker(kron, 10, 8, sc.MMSettings(tol=1e-7, max_iter=800),
                          b_structure=sc.toeplitz_basis(8)),
    sc.estimate_rank_one(sc.RankOneDictionary.augment(sc.ula_dictionary(15, 5.0)), doa),
    sc.estimate_spiked(spiked, 5),
]
for result in results:
    print(result.termination, hashlib.sha256(result.scatter.tobytes()).hexdigest())
"""


def _hashes(threads: int) -> list[str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", FITS], env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split("\n")[:-1]


def test_scatters_do_not_depend_on_the_blas_thread_count():
    one = _hashes(1)
    assert len(one) == 4
    assert _hashes(2) == one
