"""The four benchmark workloads: seeded inputs, the timed phase, result checks.

Every input is a presentation written here from the seed.  The seed
shuffles vertex labels and arrow order, so the program sees a relabelled
but isomorphic algebra; results are mapped back to the canonical labels
before they are compared with the invariants recorded in
``invariants.json``.  Vertex order among equal dimension vectors depends
on discovery order, so every invariant is an order-independent multiset.

Only the standard library is imported at module level: ``run.py`` and
the self-test import this file without importing mapscat.
"""

import contextlib
import io
import json
import random
from collections import Counter
from pathlib import Path

P = 101

# name -> (vertices, arrows as (name, source, target) 0-based, relations)
ALGEBRAS = {
    "a4_linear": (4, [("a", 0, 1), ("b", 1, 2), ("c", 2, 3)], []),
    "dual_numbers": (1, [("x", 0, 0)], ["1*x.x = 0"]),
    "kronecker": (2, [("a", 0, 1), ("b", 0, 1)], []),
    "a3_linear": (3, [("a", 0, 1), ("b", 1, 2)], []),
    "a3_flip": (3, [("a", 0, 1), ("b", 2, 1)], []),
    "a3_rel": (3, [("a", 0, 1), ("b", 1, 2)], ["1*a.b = 0"]),
}

# The CLI default of 60 takes about 300 s on the Kronecker quiver; 30 stops
# after a few seconds with the bounded-run exit code 3.
KRONECKER_DIM_BOUND = 30

# Algebras whose vertex labels the seed leaves alone (it still shuffles the
# arrow order).  The bounded Kronecker knit stops at the first module over
# the dimension bound, and which one that is depends on vertex order: with
# the source labelled 2 it reaches 15 vertices instead of 14 and does 45%
# more row reduction, which would make wall_s depend on the seed.
FIXED_VERTEX_LABELS = {"kronecker"}

# workload -> (algebras it reads, ar-quiver side or None for the library run)
WORKLOADS = {
    "gamma-a4": (["a4_linear"], "gamma"),
    "gamma-dual": (["dual_numbers"], "gamma"),
    "kronecker-bounded": (["kronecker"], "lambda"),
    "certify-a3": (["a3_linear", "a3_flip", "a3_rel"], None),
}

INVARIANTS = Path(__file__).with_name("invariants.json")


def write_inputs(workload, seed, workdir, identity=False):
    """Write the workload's .alg files; return {algebra: (path, perm)}.

    perm[v] is the 0-based file label of canonical vertex v.  With
    identity=True the canonical labelling is written (used to record the
    invariants).
    """
    out = {}
    for name in WORKLOADS[workload][0]:
        n, arrows, relations = ALGEBRAS[name]
        rng = random.Random(f"{workload}/{name}/{seed}")
        perm = list(range(n))
        order = list(range(len(arrows)))
        if not identity:
            if name not in FIXED_VERTEX_LABELS:
                rng.shuffle(perm)
            rng.shuffle(order)
        lines = [f"# {name}, labels shuffled by seed {seed}", f"field p={P}", f"vertices {n}"]
        for k in order:
            a, s, t = arrows[k]
            lines.append(f"arrow {a}: {perm[s] + 1} -> {perm[t] + 1}")
        lines += [f"relation {r}" for r in relations]
        path = Path(workdir) / f"{name}.alg"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out[name] = (str(path), perm)
    return out


def canonical_dims(dims, perm):
    """Dimension vector in canonical labels; Gamma vectors hold two copies."""
    n = len(perm)
    return [dims[c * n + perm[v]] for c in range(len(dims) // n) for v in range(n)]


# -- knit workloads: mapscat.cli.main ar-quiver --------------------------------


class KnitWorkload:
    def __init__(self, workload, inputs, workdir):
        (self.alg,) = WORKLOADS[workload][0]
        self.side = WORKLOADS[workload][1]
        self.path, self.perm = inputs[self.alg]
        self.prefix = str(Path(workdir) / f"{self.alg}_{self.side}")
        self.argv = ["ar-quiver", "--side", self.side, self.path, "--out", self.prefix]
        if workload == "kronecker-bounded":
            self.argv += ["--dim-bound", str(KRONECKER_DIM_BOUND)]

    def run(self):
        """The timed phase: one CLI call.  Returns its exit code."""
        from mapscat import cli

        Path(self.prefix + ".json").unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(self.argv)

    def summarize(self, exit_code):
        """Order-independent invariants of the report the CLI wrote."""
        results = json.loads(Path(self.prefix + ".json").read_text(encoding="utf-8"))["results"]
        dims = [canonical_dims(v["dims"], self.perm) for v in results["vertices"]]
        return {
            "exit": exit_code,
            "complete": results["complete"],
            "warning": bool(results["warning"]),
            "vertices": sorted(dims),
            "projectives": sorted(d for d, v in zip(dims, results["vertices"]) if v["projective"]),
            "injectives": sorted(d for d, v in zip(dims, results["vertices"]) if v["injective"]),
            "arrows": sorted([dims[a["from"]], dims[a["to"]], a["multiplicity"]] for a in results["arrows"]),
            "tau": sorted([dims[i], dims[j]] for i, j in results["tau"]),
            "sequences": sorted(
                [canonical_dims(s[k], self.perm) for k in ("left_dims", "middle_dims", "right_dims")]
                + [s["verified"]]
                for s in results["sequences"]
            ),
        }


def check_knit(actual, expected):
    """(attempted, failed, mismatched keys): one operation per CLI call."""
    bad = sorted(k for k in expected if actual.get(k) != expected[k])
    return 1, int(bool(bad)), bad


# -- certify-a3: the library API ------------------------------------------------

APPROX = [
    ("epimaps", "right", "right_approx_epimaps"),
    ("epimaps", "left", "left_approx_epimaps"),
    ("monomaps", "right", "right_approx_monomaps"),
    ("monomaps", "left", "left_approx_monomaps"),
]
TILTING = [("generalized", "check_generalized_tilting"), ("classical", "check_classical_tilting")]


class CertifyWorkload:
    """Approximations of every Gamma indecomposable, plus the tilting checks.

    Set-up knits each algebra on both sides; the timed phase only
    certifies.  The tilting candidate is the identity and target-only
    object of every indecomposable Lambda-module.
    """

    def __init__(self, workload, inputs, workdir):
        import mapscat
        from mapscat.functors import _is_epimap, _is_monomap

        self.prepared = []
        for name in WORKLOADS[workload][0]:
            path, perm = inputs[name]
            alg = mapscat.parse_algebra_file(Path(path).read_text(encoding="utf-8")).algebra
            tri = mapscat.gamma_of(alg)
            xs = [mapscat.from_gamma_module(tri, m) for m in mapscat.knit_ar_quiver(tri.algebra).vertices]
            lam = mapscat.knit_ar_quiver(alg).vertices
            corpora = {
                "epimaps": [x for x in xs if _is_epimap(x)],
                "monomaps": [x for x in xs if _is_monomap(x)],
            }
            ts = [mapscat.identity_object(m) for m in lam] + [mapscat.target_only(m) for m in lam]
            self.prepared.append((name, perm, xs, corpora, lam, ts))

    def run(self):
        """The timed phase.  Returns the raw results, summarized untimed."""
        import mapscat

        certs, reports = [], {}
        for name, perm, xs, corpora, lam, ts in self.prepared:
            for x in xs:
                for family, side, fn in APPROX:
                    _, cert = getattr(mapscat, fn)(x, corpora[family])
                    certs.append((name, family, side, x, cert))
            for mode, fn in TILTING:
                reports[f"{name}/{mode}"] = getattr(mapscat, fn)(ts, corpus=lam)
        return certs, reports

    def summarize(self, raw):
        certs, reports = raw
        perms = {name: perm for name, perm, *_ in self.prepared}
        return {
            "certificates": sorted(
                [name, family, side, canonical_dims(list(x.m1.dims) + list(x.m2.dims), perms[name]),
                 bool(cert), len(cert.test_factorizations)]
                for name, family, side, x, cert in certs
            ),
            "tilting": {
                key: {check: r.status for check, r in rep.checks.items()}
                for key, rep in reports.items()
            },
        }


def check_certify(actual, expected):
    """(attempted, failed, mismatches): one operation per certificate and per report."""
    want = Counter(json.dumps(c) for c in expected["certificates"])
    got = Counter(json.dumps(c) for c in actual["certificates"])
    failed_certs = max(sum((want - got).values()), sum((got - want).values()))
    bad_reports = sorted(k for k in expected["tilting"] if actual["tilting"].get(k) != expected["tilting"][k])
    attempted = len(expected["certificates"]) + len(expected["tilting"])
    bad = (["certificates"] if failed_certs else []) + bad_reports
    return attempted, failed_certs + len(bad_reports), bad


def make(workload, inputs, workdir):
    cls = CertifyWorkload if WORKLOADS[workload][1] is None else KnitWorkload
    return cls(workload, inputs, workdir)


def check(workload, actual, expected):
    """(attempted, failed, mismatches); actual=None fails every operation."""
    fn = check_certify if WORKLOADS[workload][1] is None else check_knit
    if actual is None:
        attempted = fn(expected, expected)[0]
        return attempted, attempted, ["no result"]
    return fn(actual, expected)


def load_invariants():
    return json.loads(INVARIANTS.read_text(encoding="utf-8"))
