"""The benchmark's tracer finds every library function it spans.

``perfbench/tracing.py`` replaces library functions by name and skips a
hook whose target is gone, so a rename would silently drop a span from
the per-layer metrics. This test loads the tracer from its file, installs
it and checks that no hook is missing and that the spans see the fits.
"""

import importlib.util
from pathlib import Path

import numpy as np

import structcov.tyler
from structcov import (
    MMSettings,
    estimate_kronecker,
    estimate_linear,
    sample_elliptical,
    toeplitz_basis,
)
from structcov.simulate import ar_cov

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_hook_finds_its_target():
    tracing = _load_tracing()
    original = structcov.tyler.mm_drive
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
        X = sample_elliptical(np.kron(ar_cov(3, 0.5), ar_cov(4, 0.8)), 10, seed=25)
        kron = estimate_kronecker(X, 3, 4)
        Y = sample_elliptical(ar_cov(5, 0.6), 40, seed=26)
        linear = estimate_linear(toeplitz_basis(5), Y, MMSettings(tol=1e-6))
        # the Kronecker fit ran on the driver, and every map of the linear
        # fit is one inner update
        drives = [i for i, name in enumerate(tracer.names) if name == "tyler.mm_drive"]
        assert [tracer.attrs[i]["iterations"] for i in drives] == [
            kron.iterations,
            linear.iterations,
        ]
        assert tracer.names.count("linear.inner_update") == linear.iterations
    finally:
        tracer.uninstall()
    assert structcov.tyler.mm_drive is original
