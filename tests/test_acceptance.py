"""End-to-end acceptance checks.

One test per criterion, each printing a single summary line (run with -v
or -rA to see them).  These are slower than the unit tests but every
bound here is part of the contract: exact equalities, 100% pass rates,
and wall-clock ceilings where stated.
"""

import json
import time
from types import SimpleNamespace

import pytest

from oracles import validate_hom_exactness
from mapscat.algebra import algebra_from_spec
from mapscat.ar import (
    check_ar_in_S,
    is_almost_split,
    knit_ar_quiver,
    maps_seq_from_gamma,
    s_theorem_hypothesis,
    special_seq_M_zero,
    special_seq_duals,
    special_seq_identity_target,
    special_seq_zero_source,
)
from mapscat.cli import main as cli_main
from mapscat.maps import (
    MapObject,
    ProjComplex,
    gamma_of,
    from_gamma_module,
    identity_object,
    indec_map_kind,
    minimize_presentation,
    relative_ext_dim,
    relative_syzygy,
    rpdim,
    target_only,
)
from mapscat.modules import (
    direct_sum,
    compose,
    ext_dim,
    hom_basis,
    is_injective_indec,
    is_projective_indec,
    kernel,
)
from mapscat.functors import (
    FpFunctor,
    certify_right_approx,
    check_generalized_tilting,
    epimap_corpus,
    functor_is_zero,
    functor_realization,
    functor_syzygy,
    functors_isomorphic,
    left_approx_epimaps,
    left_approx_monomaps,
    monomap_corpus,
    pdim,
    phi_image_of_ar,
    realize_map_object,
    reconstruct_maps_approx_from_phi,
    right_approx_epimaps,
    right_approx_monomaps,
    is_torsion_free,
    theta_functor,
    transport_approx_via_phi,
)

P = 101

# name, vertices, arrows, relations, expected module-side / maps-side counts
CORPUS = [
    ("a2", 2, [("a", 0, 1)], [], 3, 11),
    ("a3_linear", 3, [("a", 0, 1), ("b", 1, 2)], [], 6, 29),
    ("a3_flip", 3, [("a", 0, 1), ("b", 2, 1)], [], 6, 30),
    ("a3_rel", 3, [("a", 0, 1), ("b", 1, 2)], [[(1, ["a", "b"])]], 5, 20),
]


@pytest.fixture(scope="module")
def bench():
    out = {}
    for name, n, arrows, rels, n_lam, n_gam in CORPUS:
        alg = algebra_from_spec(P, n, arrows, rels)
        lam = knit_ar_quiver(alg, dim_bound=40)
        tri = gamma_of(alg)
        gam = knit_ar_quiver(tri.algebra, dim_bound=80)
        assert lam.complete and gam.complete
        assert len(lam.vertices) == n_lam and len(gam.vertices) == n_gam
        xs = [from_gamma_module(tri, v) for v in gam.vertices]
        out[name] = SimpleNamespace(alg=alg, lam=lam, tri=tri, gam=gam, xs=xs)
    return out


def _line(num, detail):
    print(f"criterion {num}: PASS ({detail})")


def test_criterion_1_worked_example(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "verify.json"
    rc = cli_main(["verify-example", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    report = json.loads(out.read_text())
    res = report["results"]
    assert res["pass"] and res["primes_agree"]
    assert [r["p"] for r in res["runs"]] == [101, 5]
    names = [c["name"] for c in res["runs"][0]["checks"]]
    assert names == [
        "lambda-indecomposables",
        "projective-gamma-modules",
        "sequence-a",
        "sequence-b",
        "sequence-c",
        "phi-chain",
        "auslander-presentation",
    ]
    for run in res["runs"]:
        assert all(c["pass"] for c in run["checks"])
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _line(1, f"verify-example, {len(names)} checks at p=101 and p=5, {elapsed:.2f}s")


def test_criterion_2_special_sequences_almost_split(bench):
    t0 = time.perf_counter()
    checked = 0
    for name, ns in bench.items():
        test_set = ns.gam.vertices
        for m in ns.lam.vertices:
            if not is_projective_indec(m):
                for seq in (
                    special_seq_identity_target(m),
                    special_seq_zero_source(m),
                    special_seq_M_zero(m),
                ):
                    cert = is_almost_split(seq, test_set)
                    assert bool(cert), (name, m.dims, cert.reasons)
                    checked += 1
            if not is_injective_indec(m):
                for seq in special_seq_duals(m):
                    cert = is_almost_split(seq, test_set)
                    assert bool(cert), (name, m.dims, cert.reasons)
                    checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 54  # 9 non-projectives and 9 non-injectives, 3 families each
    assert elapsed < 120.0, f"took {elapsed:.2f}s"
    _line(2, f"{checked}/54 special sequences almost split, {elapsed:.1f}s")


def _hypothesis_sequences(ns):
    for _, s in sorted(ns.gam.sequences.items()):
        ms = maps_seq_from_gamma(ns.tri, s)
        if s_theorem_hypothesis(ms)[0]:
            yield ms


def test_criterion_3_ar_sequences_lie_in_S(bench):
    hits = {}
    for name, ns in bench.items():
        n = 0
        for ms in _hypothesis_sequences(ns):
            verdict = check_ar_in_S(ms)
            assert verdict.verdict, (name, verdict)
            n += 1
        hits[name] = n
    assert hits == {"a2": 1, "a3_linear": 8, "a3_flip": 9, "a3_rel": 3}
    _line(3, f"{sum(hits.values())} hypothesis sequences all S-exact")


def test_criterion_4_phi_images_almost_split(bench):
    n = 0
    for name, ns in bench.items():
        real = functor_realization(ns.alg)
        for ms in _hypothesis_sequences(ns):
            img = phi_image_of_ar(real, ms)
            assert bool(img.certificate), (name, img.certificate.reasons)
            assert img.corpus_complete
            n += 1
    assert n == 21
    _line(4, f"{n} realized images verified almost split")


def _sample_complexes(ns):
    """Stalks, mono two-term, and kernel-completed complexes, all Hom-exact."""
    indecs = ns.lam.vertices
    pad = indecs[0]
    for m in indecs:
        yield ProjComplex([m], [])
    for a in indecs:
        for b in indecs:
            if a is b:
                continue
            for f in hom_basis(a, b):
                k, incl = kernel(f)
                if k.is_zero():
                    if sum(a.dims) == sum(b.dims):
                        continue  # an isomorphism presents the zero functor
                    yield ProjComplex([b, a], [f])
                    yield ProjComplex([b, a, k], [f, incl])
                else:
                    yield ProjComplex([b, a, k], [f, incl])
                    sd = direct_sum(ns.alg, [k, pad])
                    d1 = compose(incl, sd.projections[0])
                    yield ProjComplex([b, a, sd.module, pad], [f, d1, sd.inclusions[1]])


def test_criterion_5_theta_dimension_and_syzygy(bench):
    total = 0
    for name, ns in bench.items():
        corpus = ns.lam.vertices
        for cpx in _sample_complexes(ns):
            assert validate_hom_exactness(cpx, corpus), (name, cpx)
            theta = theta_functor(cpx)
            assert rpdim(cpx) == pdim(theta), (name, cpx)
            if cpx.length >= 1:
                lhs = theta_functor(relative_syzygy(cpx, 0))
                assert functors_isomorphic(lhs, functor_syzygy(theta)), (name, cpx)
            total += 1
    assert total >= 50
    _line(5, f"{total} complexes: rpdim matches pdim of theta, syzygies commute")


def test_criterion_6_relative_ext_matches_realized_ext(bench):
    ns = bench["a2"]
    real = functor_realization(ns.alg)
    objs = [
        minimize_presentation(x)
        for x in ns.xs
        if indec_map_kind(x) in ("generic", "target_only")
    ]
    assert len(objs) == 5
    realized = [realize_map_object(real, x) for x in objs]
    pairs = 0
    for i, x in enumerate(objs):
        for j, y in enumerate(objs):
            for k in (1, 2):
                rel = relative_ext_dim(x, y, k)
                mod = ext_dim(realized[i], realized[j], k)
                assert rel == mod, (x.name, y.name, k, rel, mod)
            pairs += 1
    assert pairs == 25
    _line(6, f"{pairs} ordered pairs, Ext^1 and Ext^2 dimensions agree exactly")


def test_criterion_7_torsion_pdim_dichotomy(bench):
    counts = {}
    for name, ns in bench.items():
        n = 0
        for x in ns.xs:
            fn = FpFunctor(x)
            if functor_is_zero(fn):
                continue
            d = pdim(fn)
            assert d <= 2, (name, x.name, d)
            # is_torsion_free cross-checks radical, pdim and mono criteria
            assert is_torsion_free(fn) == (d <= 1), (name, x.name)
            n += 1
        counts[name] = n
    assert counts == {"a2": 5, "a3_linear": 17, "a3_flip": 18, "a3_rel": 10}
    _line(7, f"{sum(counts.values())} indecomposable functors, dichotomy holds")


def test_criterion_8_tilting_verdicts_agree_with_realization(bench):
    ns = bench["a2"]
    real = functor_realization(ns.alg)
    mods = ns.lam.vertices
    candidates = [
        (
            "relative-projectives",
            [identity_object(m) for m in mods] + [target_only(m) for m in mods],
            True,
        ),
        ("gamma-projectives", [ns.xs[i] for i in ns.gam.projectives], False),
        ("ar-sequence-ends", _failing_pair(ns), False),
    ]
    for label, ts, expected in candidates:
        rep = check_generalized_tilting(ts, corpus=list(mods), realization=real)
        assert {c.status for c in rep.checks.values()} <= {"pass", "fail"}, label
        assert rep.verdict is expected, (label, {k: c.status for k, c in rep.checks.items()})
        assert rep.checks["realized-agreement"].status == "pass", label
    _line(8, "3 candidates, maps-level and realized verdicts agree on each")


def _failing_pair(ns):
    # the two generic objects (S2, P1, f) and (P1, S1, g)
    picked = [minimize_presentation(x) for x in ns.xs]
    picked = [y for y in picked if indec_map_kind(y) == "generic"]
    assert len(picked) == 2
    return picked


def test_criterion_9_approximations_and_transport(bench):
    t0 = time.perf_counter()
    ns = bench["a2"]
    ec = epimap_corpus(ns.alg)
    mc = monomap_corpus(ns.alg)
    runs = 0
    for x in ns.xs:
        for fn, corpus in (
            (right_approx_epimaps, ec),
            (left_approx_epimaps, ec),
            (right_approx_monomaps, mc),
            (left_approx_monomaps, mc),
        ):
            _, cert = fn(x, corpus)
            assert cert, (x.name, fn.__name__)
            runs += 1
    assert runs == 44

    real = functor_realization(ns.alg)
    # the non-mono generic object (P1, S1, g); its kernel drives reconstruction
    m = next(
        y for y in (minimize_presentation(x) for x in ns.xs)
        if indec_map_kind(y) == "generic" and not kernel(y.f)[0].is_zero()
    )
    approx, cert = right_approx_epimaps(m, ec)
    assert cert
    rho, tcert = transport_approx_via_phi(real, approx, ec)
    assert tcert
    n, rcert = reconstruct_maps_approx_from_phi(real, m, ec, approx.source, rho)
    assert rcert
    again = certify_right_approx(n, ec)
    assert again
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    _line(9, f"{runs} approximations certified, transport round-trip holds, {elapsed:.1f}s")
