"""Bit-for-bit parity of fits between two source trees.

    python tools/fit_parity.py ROOT OUT.json
    python tools/fit_parity.py --compare A.json B.json

The first form imports the library from ``ROOT/src`` and the benchmark
cases from ``ROOT/perfbench/cases.py`` (read, never changed), fits
every case of the ``fit-closedform`` and ``fit-newton`` workloads for
seeds 3, 7 and 11, plus ``mc-study``-like K=15 AR(0.8) Toeplitz and
Tyler fits (real and complex, N in {20, 40, 60, 100}, 10 draws each,
tol 1e-6, max_iter 400, no cost trace), plus a ``toeplitz_binding`` group
of Toeplitz fits with the same settings on AR(0.95) and AR(0.99) truths
(K=15, N in {16, 20}, real and complex, 3 draws each), where some powers
of the optimum are zero, plus a restart group of
rank-one (augmented 10-degree ULA dictionary), Toeplitz and banded
(bandwidth 2) fits of K=8 AR(0.8) samples (real and complex, N=20, 3
draws each) whose inner solve (a rank-one fit's interior-point map)
raises FailedToConvergeError once, at its third call, so that each fit
restarts with the 1e-10 ridge, plus a mixed-field group of real K=5
AR(0.6) samples (N=20, 3 draws) meeting a complex operand: a linear fit
on ``hermitian_basis(5)``, a rank-one fit on the augmented complex
10-degree ULA dictionary, and Tyler and spiked
(2 spikes) fits from a complex positive definite start, plus a complex
Kronecker group of 3x4 fits (block MM and Gauss-Seidel, each also with a
Toeplitz B) of complex samples with scatter AR(0.5) kron AR(0.8) (N=10,
3 draws), plus a ``toeplitz_wide`` group of Toeplitz and banded (bandwidth 2)
fits at embedding sizes 16 and 17, above 2K-1 = 15, of K=8 AR(0.8) samples
(real and complex, N=20, 3 draws, tol 1e-6), which take the paper's
separable step on the embedding's (for real samples, float-viewed) atoms,
plus a ``kron_singular_b`` group of 2x8 Kronecker fits with a Toeplitz B
(block MM and Gauss-Seidel) of real samples with scatter AR(0.5) kron
AR(0.8) at N in {2, 3} (3 draws, tol 1e-7), whose 2N reshaped
columns cannot span B's 8 dimensions, so that every B step takes the log-det barrier,
plus a ``rankone_near_k`` group of rank-one fits (augmented 5-degree ULA
dictionary, default settings) of two-source DOA draws with N close to K
(K=15 with N in {16, 20}, K=3 with N in {4, 6}, 3 draws each),
plus a ``spiked_near_k`` group of spiked fits (2 spikes, default
settings) of K=8 AR(0.95) samples with N in {9, 12} (real and complex,
3 draws each), whose SQUAREM trials are refused more often than the
benchmark's, by the cost check and (one real N=9 trial) as indefinite, and
writes one sha256 per fit to OUT.json. The hash covers the scatter,
params, objective trace, iterations, termination, the SQUAREM counters,
the ridge ``epsilon``, the ``newton_fallbacks`` of Toeplitz and rank-one
fits, a rank-one fit's ``inner_steps`` and, for Kronecker fits,
factor_a, factor_b and b_coeffs; a fit that raises hashes its error.
Beside each hash are the fit's iterations, its termination and the cost
``tyler_cost(result.scatter, samples)`` of its scatter (None for a fit
that raised). Every BLAS runs on one thread.

The second form lists the fits whose hashes differ (or that only one
file has) with both sides' iterations, termination and cost, then per
group the largest cost gap, the largest signed cost rise of the second
file over the first, both sides' mean iterations and how many fits took
more and how many fewer maps in the second file, both sides' ``max_iter``
stops and the distribution of the signed cost change (minimum,
quartiles, maximum), and exits 1 when any hash differs. Its last line counts the fits whose iterations or
termination changed (a fit only one file has counts as changed). A
roundoff change keeps the iterations and the termination, so that count
is 0, and moves the cost by a few ulps; a real change does not. A change
that moves iterations on purpose should show no positive rise beyond
roundoff.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

SEEDS = (3, 7, 11)
MC_N = (20, 40, 60, 100)
MC_DRAWS = 10
BINDING_BETAS = (0.95, 0.99)
BINDING_N = (16, 20)
BINDING_DRAWS = 3
RESTART_DRAWS = 3
MIXED_DRAWS = 3
KRON_COMPLEX_DRAWS = 3
WIDE_SIZES = (16, 17)
WIDE_DRAWS = 3
SINGULAR_B_N = (2, 3)
SINGULAR_B_DRAWS = 3
NEAR_K = ((15, (16, 20)), (3, (4, 6)))
NEAR_K_DRAWS = 3
SPIKED_NEAR_K_N = (9, 12)
SPIKED_NEAR_K_DRAWS = 3
DETAIL_KEYS = ("squarem_cycles", "squarem_rejected", "epsilon", "newton_fallbacks", "inner_steps",
               "factor_a", "factor_b", "b_coeffs")


def _digest(result) -> str:
    import numpy as np

    h = hashlib.sha256()
    fields = [result.scatter, result.params, result.objective_trace,
              result.iterations, result.termination]
    fields += [result.details.get(key) for key in DETAIL_KEYS]
    for value in fields:
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
        h.update(b"|")
    return h.hexdigest()


def _fit(fit, samples) -> dict:
    """The fit's hash, iterations, termination and cost; a fit that raised hashes its error."""
    from structcov import EstimationError, tyler_cost

    try:
        result = fit(samples)
    except EstimationError as exc:
        digest = hashlib.sha256(f"{type(exc).__name__}: {exc}".encode()).hexdigest()
        return {"hash": "error:" + digest, "iterations": None, "termination": None, "cost": None}
    return {"hash": _digest(result), "iterations": result.iterations,
            "termination": result.termination, "cost": tyler_cost(result.scatter, samples)}


def _mc_fits():
    """(group, key, fit, samples) of the mc-study-like fits."""
    import numpy as np

    import structcov as sc

    settings = sc.MMSettings(tol=1e-6, max_iter=400, record_trace=False)
    fits = {
        "mc_toeplitz": lambda X: sc.estimate_toeplitz(X, settings),
        "mc_tyler": lambda X: sc.tyler_unconstrained(X, settings),
    }
    truth = sc.ar_cov(15, 0.8)
    for field, R0 in (("real", truth), ("complex", truth.astype(complex))):
        for n in MC_N:
            for draw in range(MC_DRAWS):
                X = sc.sample_elliptical(R0, n, np.random.SeedSequence([15, n, draw]), tau_dof=1.0)
                for label, fit in fits.items():
                    yield f"{label}/{field}", f"{label}/{field}/N{n}/d{draw}", fit, X


def _binding_fits():
    """(group, key, fit, samples) of the Toeplitz fits whose optimum has zero powers."""
    import numpy as np

    import structcov as sc

    settings = sc.MMSettings(tol=1e-6, max_iter=400, record_trace=False)
    for beta in BINDING_BETAS:
        truth = sc.ar_cov(15, beta)
        for field, R0 in (("real", truth), ("complex", truth.astype(complex))):
            for n in BINDING_N:
                for draw in range(BINDING_DRAWS):
                    seed = np.random.SeedSequence([15, round(100 * beta), n, draw])
                    X = sc.sample_elliptical(R0, n, seed, tau_dof=1.0)
                    yield (f"toeplitz_binding/{field}", f"toeplitz_binding/{field}/b{beta}/N{n}/d{draw}",
                           lambda X: sc.estimate_toeplitz(X, settings), X)


def _failing_once(module, attr, fit):
    """``fit`` with ``module.attr`` raising FailedToConvergeError at its third call.

    The attribute is replaced for the length of one fit and then restored.
    """
    from structcov import FailedToConvergeError

    def run(samples):
        solve = getattr(module, attr)
        calls = []

        def fails_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise FailedToConvergeError("forced")
            return solve(*args, **kwargs)

        setattr(module, attr, fails_once)
        try:
            return fit(samples)
        finally:
            setattr(module, attr, solve)

    return run


def _restart_fits():
    """(group, key, fit, samples) of the fits forced to restart once."""
    import numpy as np

    import structcov as sc
    import structcov.rankone
    import structcov.toeplitz

    dictionary = sc.RankOneDictionary.augment(sc.ula_dictionary(8, 10.0))
    # a tree whose rank-one maps all take the separable step fails that step
    rank_one_map = "_capped_solve" if hasattr(structcov.rankone, "_capped_solve") else "power_update"
    fits = {
        "restart_rankone": _failing_once(structcov.rankone, rank_one_map,
                                         lambda X: sc.estimate_rank_one(dictionary, X)),
        "restart_toeplitz": _failing_once(structcov.toeplitz, "power_update",
                                          sc.estimate_toeplitz),
        "restart_banded": _failing_once(structcov.toeplitz, "banded_inner_update",
                                        lambda X: sc.estimate_banded_toeplitz(X, 2)),
    }
    truth = sc.ar_cov(8, 0.8)
    for field, R0 in (("real", truth), ("complex", truth.astype(complex))):
        for draw in range(RESTART_DRAWS):
            X = sc.sample_elliptical(R0, 20, np.random.SeedSequence([8, draw]), tau_dof=1.0)
            for label, fit in fits.items():
                yield f"{label}/{field}", f"{label}/{field}/d{draw}", fit, X


def _mixed_fits():
    """(group, key, fit, samples) of the fits whose real samples meet a complex operand."""
    import numpy as np

    import structcov as sc

    basis = sc.hermitian_basis(5)
    dictionary = sc.RankOneDictionary.augment(sc.ula_dictionary(5, 10.0))
    start = sc.doa_cov(5, [-20.0, 30.0], [1.0, 1.0], 0.1)
    fits = {
        "mixed_linear": lambda X: sc.estimate_linear(basis, X),
        "mixed_rankone": lambda X: sc.estimate_rank_one(dictionary, X),
        "mixed_tyler": lambda X: sc.tyler_unconstrained(X, init=start),
        "mixed_spiked": lambda X: sc.estimate_spiked(X, 2, init=start),
    }
    truth = sc.ar_cov(5, 0.6)
    for draw in range(MIXED_DRAWS):
        X = sc.sample_elliptical(truth, 20, np.random.SeedSequence([5, draw]), tau_dof=1.0)
        for label, fit in fits.items():
            yield label, f"{label}/d{draw}", fit, X


def _kron_complex_fits():
    """(group, key, fit, samples) of the Kronecker fits of complex samples."""
    import numpy as np

    import structcov as sc

    basis = sc.toeplitz_basis(4)
    fits = {
        "mm": lambda X: sc.estimate_kronecker(X, 3, 4, method="mm"),
        "gs": lambda X: sc.estimate_kronecker(X, 3, 4, method="gs"),
        "mm_toepb": lambda X: sc.estimate_kronecker(X, 3, 4, method="mm", b_structure=basis),
        "gs_toepb": lambda X: sc.estimate_kronecker(X, 3, 4, method="gs", b_structure=basis),
    }
    truth = np.kron(sc.ar_cov(3, 0.5), sc.ar_cov(4, 0.8)).astype(complex)
    for draw in range(KRON_COMPLEX_DRAWS):
        X = sc.sample_elliptical(truth, 10, np.random.SeedSequence([12, draw]), tau_dof=1.0)
        for label, fit in fits.items():
            yield "kron_complex", f"kron_complex/{label}/d{draw}", fit, X


def _wide_fits():
    """(group, key, fit, samples) of the Toeplitz and banded fits with L > 2K - 1."""
    import numpy as np

    import structcov as sc

    settings = sc.MMSettings(tol=1e-6)
    truth = sc.ar_cov(8, 0.8)
    for field, R0 in (("real", truth), ("complex", truth.astype(complex))):
        for draw in range(WIDE_DRAWS):
            X = sc.sample_elliptical(R0, 20, np.random.SeedSequence([8, 16, draw]), tau_dof=1.0)
            for l in WIDE_SIZES:
                fits = {
                    "toeplitz": lambda X, l=l: sc.estimate_toeplitz(X, settings, embedding_size=l),
                    "banded": lambda X, l=l: sc.estimate_banded_toeplitz(X, 2, settings,
                                                                         embedding_size=l),
                }
                for label, fit in fits.items():
                    yield (f"toeplitz_wide/{field}", f"toeplitz_wide/{field}/{label}/L{l}/d{draw}",
                           fit, X)


def _singular_b_fits():
    """(group, key, fit, samples) of the Kronecker fits whose B moments are all singular."""
    import numpy as np

    import structcov as sc

    settings = sc.MMSettings(tol=1e-7)
    basis = sc.toeplitz_basis(8)
    truth = np.kron(sc.ar_cov(2, 0.5), sc.ar_cov(8, 0.8))
    for n in SINGULAR_B_N:
        for draw in range(SINGULAR_B_DRAWS):
            X = sc.sample_elliptical(truth, n, np.random.SeedSequence([9, n, draw]), tau_dof=1.0)
            for method in ("mm", "gs"):
                yield ("kron_singular_b", f"kron_singular_b/{method}/N{n}/d{draw}",
                       lambda X, method=method: sc.estimate_kronecker(
                           X, 2, 8, settings, method=method, b_structure=basis), X)


def _near_k_fits():
    """(group, key, fit, samples) of the rank-one fits with N close to K."""
    import numpy as np

    import structcov as sc

    for k, ns in NEAR_K:
        dictionary = sc.RankOneDictionary.augment(sc.ula_dictionary(k, 5.0))
        truth = sc.doa_cov(k, [-20.0, 30.0], [1.0, 1.0], 0.1)
        for n in ns:
            for draw in range(NEAR_K_DRAWS):
                X = sc.sample_elliptical(truth, n, np.random.SeedSequence([k, n, draw]), tau_dof=1.0)
                yield ("rankone_near_k", f"rankone_near_k/K{k}/N{n}/d{draw}",
                       lambda X, dictionary=dictionary: sc.estimate_rank_one(dictionary, X), X)


def _spiked_near_k_fits():
    """(group, key, fit, samples) of the spiked fits with N close to K."""
    import numpy as np

    import structcov as sc

    truth = sc.ar_cov(8, 0.95)
    for field, R0 in (("real", truth), ("complex", truth.astype(complex))):
        for n in SPIKED_NEAR_K_N:
            for draw in range(SPIKED_NEAR_K_DRAWS):
                X = sc.sample_elliptical(R0, n, np.random.SeedSequence([8, 2, n, draw]),
                                         tau_dof=1.0)
                yield ("spiked_near_k", f"spiked_near_k/{field}/N{n}/d{draw}",
                       lambda X: sc.estimate_spiked(X, 2), X)


def hash_fits(root: str) -> dict:
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import cases

    out = {"root": os.path.abspath(root), "fits": {}, "groups": {}}

    def record(group, key, fit, samples):
        entry = out["fits"][key] = {"group": group, **_fit(fit, samples)}
        stats = out["groups"].setdefault(group, {"fits": 0, "errors": 0, "iterations": 0})
        stats["fits"] += 1
        stats["errors"] += entry["iterations"] is None
        stats["iterations"] += entry["iterations"] or 0

    for workload, build in cases.CASE_BUILDERS.items():
        for seed in SEEDS:
            for case in build(seed, cases.DATASETS[workload]):
                for i, (samples, _) in enumerate(case.inputs):
                    record(case.label, f"{workload}/{case.label}/s{seed}/d{i}", case.fit, samples)
    for group, key, fit, samples in (*_mc_fits(), *_binding_fits(), *_restart_fits(),
                                     *_mixed_fits(), *_kron_complex_fits(), *_wide_fits(),
                                     *_singular_b_fits(), *_near_k_fits(),
                                     *_spiked_near_k_fits()):
        record(group, key, fit, samples)
    return out


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)["fits"]


def compare(path_a: str, path_b: str) -> list[str]:
    """Keys whose hashes differ, or that only one of the two files has."""
    a, b = _load(path_a), _load(path_b)
    return sorted(key for key in a.keys() | b.keys()
                  if key not in a or key not in b or a[key]["hash"] != b[key]["hash"])


def cost_gaps(path_a: str, path_b: str) -> dict:
    """Per group of the fits both files have: the largest cost gap and rise, and mean iterations.

    ``abs`` and ``rel`` are the largest |cost_b - cost_a|, absolute and
    relative; ``rise`` is the largest signed cost_b - cost_a, so it is
    negative when every fit of B ends below A's. A fit that raised on
    one side only counts as an infinite gap, and as a rise of +inf when
    B raised and -inf when A did. ``iterations`` holds each side's mean
    iterations over the fits that did not raise there, and ``more`` and
    ``fewer`` count the fits that did not raise on either side and took
    more, or fewer, iterations in B than in A. ``changes`` is the
    distribution of the signed cost_b - cost_a over those fits: its
    minimum, quartiles and maximum (empty when there are none), and
    ``max_iter`` counts each side's fits that stopped at ``max_iter``.
    """
    a, b = _load(path_a), _load(path_b)
    gaps = {}
    for key in sorted(a.keys() & b.keys()):
        ca, cb = a[key]["cost"], b[key]["cost"]
        if ca is None or cb is None:
            gap = rel = 0.0 if ca is cb else float("inf")
            rise = 0.0 if ca is cb else float("inf") if cb is None else -float("inf")
        else:
            gap, rise = abs(cb - ca), cb - ca
            rel = gap / abs(ca) if ca else gap
        group = gaps.setdefault(a[key]["group"], {"abs": 0.0, "rel": 0.0, "rise": -float("inf"),
                                                  "iteration_lists": [[], []],
                                                  "more": 0, "fewer": 0, "changes": [],
                                                  "max_iter": [0, 0]})
        group["abs"], group["rel"] = max(group["abs"], gap), max(group["rel"], rel)
        group["rise"] = max(group["rise"], rise)
        if ca is not None and cb is not None:
            group["changes"].append(cb - ca)
        for i, (side, fits) in enumerate(zip(group["iteration_lists"], (a, b))):
            if fits[key]["iterations"] is not None:
                side.append(fits[key]["iterations"])
            group["max_iter"][i] += fits[key]["termination"] == "max_iter"
        ia, ib = a[key]["iterations"], b[key]["iterations"]
        if ia is not None and ib is not None:
            group["more"] += ib > ia
            group["fewer"] += ib < ia
    for group in gaps.values():
        lists = group.pop("iteration_lists")
        group["iterations"] = [sum(c) / len(c) if c else None for c in lists]
        changes = sorted(group["changes"])
        group["changes"] = [changes[round(q * (len(changes) - 1))] for q in (0, 0.25, 0.5, 0.75, 1)
                            ] if changes else []
    return gaps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs=2, metavar="PATH",
                        help="ROOT OUT.json, or with --compare two hash files")
    parser.add_argument("--compare", action="store_true",
                        help="compare two hash files instead of fitting")
    args = parser.parse_args(argv)
    if args.compare:
        differ = compare(*args.paths)
        a, b = (_load(path) for path in args.paths)
        missing = {"iterations": None, "termination": None, "cost": None}
        for key in differ:
            sides = [side.get(key, missing) for side in (a, b)]
            print(key)
            for field in ("iterations", "termination", "cost"):
                print(f"    {field:<12} {sides[0][field]!r:<24} -> {sides[1][field]!r}")
        print(f"{len(differ)} fits differ")
        print("per group: largest cost gap (absolute, relative), largest cost rise of B "
              "over A, mean iterations A -> B, fits with more and with fewer iterations in B, "
              "max_iter stops A -> B, and the cost change B - A (min, quartiles, max):")
        for group, gap in cost_gaps(*args.paths).items():
            its = " -> ".join("-" if m is None else f"{m:.2f}" for m in gap["iterations"])
            changes = " ".join(f"{c:+.2g}" for c in gap["changes"])
            print(f"    {group:<24} {gap['abs']:.3g}  {gap['rel']:.3g}  {gap['rise']:+.3g}  {its}"
                  f"  more {gap['more']}  fewer {gap['fewer']}"
                  f"  max_iter {gap['max_iter'][0]} -> {gap['max_iter'][1]}  [{changes}]")
        moved = [key for key in differ if key not in a or key not in b
                 or any(a[key][field] != b[key][field] for field in ("iterations", "termination"))]
        print(f"{len(moved)} fits changed iterations or termination")
        return 1 if differ else 0
    root, out_path = args.paths
    out = hash_fits(root)
    with open(out_path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    print(f"{len(out['fits'])} fits hashed to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
