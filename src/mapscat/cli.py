"""Command-line front end.

Four subcommands: `ar-quiver` knits Auslander-Reiten quivers on either
side of the cokernel functor and writes DOT plus JSON, `verify-example`
replays the two-vertex worked example end to end, `check-tilting` runs
the tilting checkers on named map objects from an algebra file, and
`approx` computes and certifies subcategory approximations.

Exit codes: 0 pass, 1 negative verdict, 2 input error, 3 resource bound
exceeded (an incomplete knit).  JSON output is byte-identical for
identical inputs; wall-clock timing goes to stderr only.
"""

import argparse
import hashlib
import json
import sys
import time
from importlib import resources
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .algebra import AlgebraPresentation, check_prime
from .algfile import AlgebraFile, AlgFileError, parse_algebra_file
from .ar import ar_quiver_dot, ar_quiver_json, knit_ar_quiver, maps_seq_from_gamma
from .functors import (
    _describe_map_object,
    _is_epimap,
    _is_monomap,
    check_classical_tilting,
    check_generalized_tilting,
    epimap_corpus,
    functor_realization,
    left_approx_epimaps,
    left_approx_monomaps,
    monomap_corpus,
    realize_map_object,
    right_approx_epimaps,
    right_approx_monomaps,
    tilting_report_json,
)
from .maps import (
    MapObject,
    gamma_of,
    identity_object,
    map_iso_between,
    source_only,
    target_only,
)
from .modules import (
    CertificationError,
    Module,
    _summands_match,
    compose,
    direct_sum,
    hom_basis,
    indecomposable_projective,
    iso_index,
    modules_isomorphic,
    simple_module,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BOUND = 3


class InputError(ValueError):
    """A bad file, name or flag combination; maps to exit code 2."""


def _bundled(name: str) -> str:
    return resources.files("mapscat").joinpath("data", name).read_text(encoding="utf-8")


def _read(path: Optional[str]) -> Tuple[str, str]:
    """Return (display name, text) for a path, or the bundled A2 file."""
    if path is None:
        return "a2.alg (bundled)", _bundled("a2.alg")
    p = Path(path)
    try:
        return p.name, p.read_text(encoding="utf-8")
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}")
    except UnicodeDecodeError:
        raise InputError(f"cannot read {path}: not UTF-8 text")


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise InputError(f"cannot write {path}: {e.strerror}")


def _canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(report: dict, out: Optional[str]) -> None:
    text = _canonical_json(report)
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _report(command: str, fname: str, text: str, results: dict, **params) -> dict:
    inputs = {"file": fname, "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
    inputs.update(params)
    # nothing is random; the fixed field keeps the report format unchanged
    return {"command": command, "inputs": inputs, "seed": 0, "results": results}


# -- ar-quiver -------------------------------------------------------------------


def cmd_ar_quiver(args) -> int:
    if args.dim_bound < 1:
        raise InputError("--dim-bound must be at least 1")
    fname, text = _read(args.file)
    af = parse_algebra_file(text)
    t0 = time.perf_counter()
    if args.side == "lambda":
        q = knit_ar_quiver(af.algebra, dim_bound=args.dim_bound)
    elif args.side == "gamma":
        q = knit_ar_quiver(gamma_of(af.algebra).algebra, dim_bound=args.dim_bound)
    else:
        real = functor_realization(af.algebra, dim_bound=args.dim_bound)
        q = real.delta_ar_quiver(dim_bound=args.dim_bound)
    elapsed = time.perf_counter() - t0

    prefix = args.out or f"{Path(fname).stem.split(' ')[0]}_{args.side}"
    blob = _report(
        "ar-quiver", fname, text, ar_quiver_json(q),
        side=args.side, dim_bound=args.dim_bound,
    )
    _write(prefix + ".json", _canonical_json(blob))
    _write(prefix + ".dot", ar_quiver_dot(q))
    print(
        f"side={args.side} vertices={len(q.vertices)} "
        f"projectives={len(q.projectives)} sequences={len(q.sequences)} "
        f"complete={q.complete}"
    )
    print(f"wrote {prefix}.json and {prefix}.dot")
    print(f"elapsed {elapsed:.2f}s", file=sys.stderr)
    return EXIT_PASS if q.complete else EXIT_BOUND


# -- verify-example ----------------------------------------------------------------


def worked_example_checks(alg: AlgebraPresentation) -> List[Tuple[str, bool, str]]:
    """Replay the worked example over the path algebra of 1 -> 2.

    Checks, in order: the four projective modules of the triangular
    matrix algebra are the expected maps; the three almost split
    sequences have the published terms up to isomorphism; the cokernel
    functor sends them onto the chain (-,S2) -> (-,P1) -> rad(-,S1) ->
    (-,S1) -> S_{S1}; and the evaluation category is presented by
    1 -> 2 -> 3 with the composite path killed.
    """
    q = alg.quiver
    if q.n_vertices != 2 or len(q.arrows) != 1 or alg.relations:
        raise InputError("verify-example needs the path algebra of the quiver 1 -> 2")
    src, tgt = q.arrows[0][1], q.arrows[0][2]
    s1 = simple_module(alg, src)
    s1.name = "S1"
    s2 = simple_module(alg, tgt)
    s2.name = "S2"
    proj = indecomposable_projective(alg, src)
    p1 = Module(alg, proj.dims, proj.mats, name="P1")  # a labelled copy; the cached P_v is shared
    f = hom_basis(s2, p1)[0]
    g = hom_basis(p1, s1)[0]
    checks: List[Tuple[str, bool, str]] = []

    lq = knit_ar_quiver(alg, dim_bound=40)
    ok = len(lq.vertices) == 3 and len(lq.sequences) == 1
    if ok:
        (base,) = lq.sequences.values()
        ok = (
            modules_isomorphic(base.left, s2)
            and modules_isomorphic(base.middle, p1)
            and modules_isomorphic(base.right, s1)
        )
    checks.append(
        ("lambda-indecomposables", ok, "three indecomposables, one sequence S2 -> P1 -> S1")
    )

    tri = gamma_of(alg)
    gq = knit_ar_quiver(tri.algebra, dim_bound=80)
    projs = [gq.vertices[i] for i in gq.projectives]
    expected_projs = [
        target_only(s2),
        target_only(p1),
        identity_object(p1),
        identity_object(s2),
    ]
    ok = len(gq.vertices) == 11 and _summands_match(projs, [x.gamma for x in expected_projs])
    checks.append(
        (
            "projective-gamma-modules",
            ok,
            f"{len(gq.vertices)} objects, {len(projs)} projectives against the listed four",
        )
    )

    # the three published sequences, with their explicit middle terms
    sum_a = direct_sum(alg, [s2, p1])
    sum_b1 = direct_sum(alg, [p1, s2])
    sum_b2 = direct_sum(alg, [p1, s1])
    sum_c = direct_sum(alg, [s1, p1])
    listed = [
        ("a", target_only(s2), MapObject(sum_a.inclusions[0]), MapObject(f)),
        (
            "b",
            MapObject(f),
            MapObject(compose(sum_b2.inclusions[0], sum_b1.projections[0])),
            MapObject(g),
        ),
        ("c", MapObject(g), MapObject(sum_c.projections[0]), source_only(s1)),
    ]
    for tag, left, middle, right in listed:
        j = iso_index(right.gamma, gq.vertices)
        if j not in gq.sequences:
            checks.append((f"sequence-{tag}", False, "no sequence ends at the listed object"))
            continue
        hit = maps_seq_from_gamma(tri, gq.sequences[j])
        ok_l = map_iso_between(hit.left, left) is not None
        ok_m = modules_isomorphic(hit.middle.gamma, middle.gamma)
        detail = f"left {'ok' if ok_l else 'MISMATCH'}, middle {'ok' if ok_m else 'MISMATCH'}"
        checks.append((f"sequence-{tag}", ok_l and ok_m, detail))

    real = functor_realization(alg)
    dq = real.delta_ar_quiver()
    chain = [
        ("(-,S2)", target_only(s2)),
        ("(-,P1)", target_only(p1)),
        ("rad(-,S1)", MapObject(f)),
        ("(-,S1)", target_only(s1)),
        ("S_{S1}", MapObject(g)),
    ]
    idx = [iso_index(realize_map_object(real, x), dq.vertices) for _, x in chain]
    ok = (
        len(dq.vertices) == 5
        and all(i is not None for i in idx)
        and len(set(idx)) == 5
        and dq.arrows == {(idx[k], idx[k + 1]): 1 for k in range(4)}
    )
    checks.append(
        ("phi-chain", ok, " -> ".join(name for name, _ in chain) + " as the full quiver")
    )

    delta = real.delta
    dq2 = delta.quiver
    arrows_chain = (
        len(dq2.arrows) == 2
        and dq2.n_vertices == 3
        and (
            dq2.arrows[0][2] == dq2.arrows[1][1]
            or dq2.arrows[1][2] == dq2.arrows[0][1]
        )
    )
    one_composite_relation = (
        len(delta.relations) == 1
        and len(delta.relations[0].terms) == 1
        and len(delta.relations[0].terms[0][1][1]) == 2
    )
    ok = delta.dim == 5 and arrows_chain and one_composite_relation
    checks.append(
        (
            "auslander-presentation",
            ok,
            "three vertices in a chain, composite path killed, total dimension 5",
        )
    )
    return checks


def cmd_verify_example(args) -> int:
    try:
        primes = [int(p) for p in args.primes.split(",")] if args.primes is not None else [101, 5]
    except ValueError:
        raise InputError(f"--primes must be comma-separated integers, got {args.primes!r}") from None
    for p in primes:
        try:
            check_prime(p)
        except ValueError as e:
            raise InputError(f"--primes: {e}") from None
    fname, text = _read(args.file)
    t0 = time.perf_counter()
    runs = []
    for p in primes:
        af = parse_algebra_file(text, p_override=p)
        checks = worked_example_checks(af.algebra)
        runs.append(
            {
                "p": p,
                "checks": [
                    {"name": name, "pass": ok, "detail": detail} for name, ok, detail in checks
                ],
            }
        )
    elapsed = time.perf_counter() - t0
    verdicts = [[c["pass"] for c in run["checks"]] for run in runs]
    agree = all(v == verdicts[0] for v in verdicts)
    all_pass = agree and all(all(v) for v in verdicts)
    results = {"runs": runs, "primes_agree": agree, "pass": all_pass}
    _emit(_report("verify-example", fname, text, results), args.out)
    for run in runs:
        for c in run["checks"]:
            mark = "PASS" if c["pass"] else "FAIL"
            print(f"[{mark}] p={run['p']} {c['name']}: {c['detail']}", file=sys.stderr)
    print(f"elapsed {elapsed:.2f}s", file=sys.stderr)
    return EXIT_PASS if all_pass else EXIT_FAIL


# -- check-tilting -----------------------------------------------------------------


def _named_maps(af: AlgebraFile, csv: str) -> List[MapObject]:
    out = []
    for name in csv.split(","):
        name = name.strip()
        if name not in af.maps:
            raise InputError(f"unknown map object {name!r}")
        out.append(af.maps[name])
    return out


def cmd_check_tilting(args) -> int:
    fname, text = _read(args.file)
    af = parse_algebra_file(text)
    ts = _named_maps(af, args.names)
    if all(x.is_zero() for x in ts):
        raise InputError("every named map object is zero; the tilting candidate is empty")
    t0 = time.perf_counter()
    if args.mode == "classical":
        rep = check_classical_tilting(ts)
    else:
        rep = check_generalized_tilting(ts)
    elapsed = time.perf_counter() - t0
    results = tilting_report_json(rep)
    _emit(
        _report("check-tilting", fname, text, results,
                names=args.names, mode=args.mode),
        args.out,
    )
    for key in sorted(rep.checks):
        print(f"{key}: {rep.checks[key].status}", file=sys.stderr)
    print(f"elapsed {elapsed:.2f}s", file=sys.stderr)
    return EXIT_PASS if rep.verdict else EXIT_FAIL


# -- approx -------------------------------------------------------------------------


def cmd_approx(args) -> int:
    fname, text = _read(args.file)
    af = parse_algebra_file(text)
    if args.object not in af.maps:
        raise InputError(f"unknown map object {args.object!r}")
    x = af.maps[args.object]

    if args.corpus == "epimaps":
        corpus, family = epimap_corpus(af.algebra), "epimaps"
    elif args.corpus == "monomaps":
        corpus, family = monomap_corpus(af.algebra), "monomaps"
    else:
        corpus = _named_maps(af, args.corpus)
        if all(_is_epimap(c) for c in corpus):
            family = "epimaps"
        elif all(_is_monomap(c) for c in corpus):
            family = "monomaps"
        else:
            raise InputError("named corpus mixes epimaps and monomaps")

    fn = {
        ("right", "epimaps"): right_approx_epimaps,
        ("left", "epimaps"): left_approx_epimaps,
        ("right", "monomaps"): right_approx_monomaps,
        ("left", "monomaps"): left_approx_monomaps,
    }[(args.side, family)]
    t0 = time.perf_counter()
    approx, cert = fn(x, corpus)
    elapsed = time.perf_counter() - t0
    results = {
        "object": _describe_map_object(x),
        "family": family,
        "side": args.side,
        "approximation": {
            "source": _describe_map_object(approx.source),
            "target": _describe_map_object(approx.target),
        },
        "certificate": {
            # a partial default corpus exits 3 instead; fixed to keep the format
            "complete": True,
            "factorizations": len(cert.test_factorizations),
            "failures": [
                {"corpus_object": _describe_map_object(corpus[k]), "hom_index": i}
                for k, i in cert.failures
            ],
        },
        "certified": bool(cert),
    }
    _emit(
        _report("approx", fname, text, results,
                object=args.object, corpus=args.corpus, side=args.side),
        args.out,
    )
    print(
        f"{args.side} {family} approximation of {args.object}: "
        f"{'certified' if cert else 'FAILED'} "
        f"({len(cert.test_factorizations)} factorizations)",
        file=sys.stderr,
    )
    print(f"elapsed {elapsed:.2f}s", file=sys.stderr)
    return EXIT_PASS if cert else EXIT_FAIL


# -- entry point ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mapscat",
        description="Workbench for the category of maps over a quiver algebra.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    q = sub.add_parser("ar-quiver", help="knit an Auslander-Reiten quiver, write DOT and JSON")
    q.add_argument("file", nargs="?", help="algebra file (default: bundled two-vertex example)")
    q.add_argument("--side", choices=["lambda", "gamma", "functors"], default="gamma")
    q.add_argument("--dim-bound", type=int, default=60)
    q.add_argument("--out", help="output path prefix (default: <file>_<side>)")
    q.set_defaults(fn=cmd_ar_quiver)

    v = sub.add_parser("verify-example", help="replay the two-vertex worked example")
    v.add_argument("file", nargs="?", help="algebra file (default: bundled two-vertex example)")
    v.add_argument("--primes", help="comma-separated primes to run at (default 101,5)")
    v.add_argument("--out", help="write the JSON report here instead of stdout")
    v.set_defaults(fn=cmd_verify_example)

    t = sub.add_parser("check-tilting", help="run a tilting checker on named map objects")
    t.add_argument("file", nargs="?")
    t.add_argument("--names", required=True, help="comma-separated map names from the file")
    t.add_argument("--mode", choices=["classical", "generalized"], default="classical")
    t.add_argument("--out", help="write the JSON report here instead of stdout")
    t.set_defaults(fn=cmd_check_tilting)

    a = sub.add_parser("approx", help="compute and certify a subcategory approximation")
    a.add_argument("file", nargs="?")
    a.add_argument("--object", required=True, help="map name from the file")
    a.add_argument(
        "--corpus",
        default="epimaps",
        help="'epimaps', 'monomaps', or comma-separated map names",
    )
    a.add_argument("--side", choices=["left", "right"], default="right")
    a.add_argument("--out", help="write the JSON report here instead of stdout")
    a.set_defaults(fn=cmd_approx)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (AlgFileError, InputError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except CertificationError as e:
        print(f"bound exceeded: {e}", file=sys.stderr)
        return EXIT_BOUND


if __name__ == "__main__":
    sys.exit(main())
