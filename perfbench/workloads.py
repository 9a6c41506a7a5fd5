"""The four benchmark workloads: seeded set-up, one operation, its oracle.

A workload object is built in set-up (the runner builds it several times and
times each build), then its ``run(i)`` is the timed operation and ``check(i,
out)`` the untimed oracle, which returns ``None`` when the output is correct
and a one-line reason otherwise.

Every call into intsing goes through a module attribute looked up at call
time (``bifurcation.trace_diagram``, never a name bound at import), so the
wrappers that the traced run installs in the module namespaces see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

import numpy as np

from intsing import atoms, bifurcation, canonical, classify, cli, kovalevskaya, phasespace

G = 0.5
# The CLI default diagram: `kovalevskaya_diagram`'s box and TraceParams.
# The seed-0 self-test compares against `kovalevskaya_diagram` itself, so a
# change of those defaults in the program shows there.
DIAGRAM_BOX = [(-1.2, 1.2)] * 3 + [(-4.0, 4.0)] * 3
DIAGRAM_STEP = 0.08
DIAGRAM_RESOLUTION = 7
VERTEX_DELTA = 1e-2

DISGUISES_PER_TYPE = 69  # 45 types x 69 = 3105 points: p99 has about 30 distinct points beyond it
ATOMS_MIN_OPS = 1000
VERIFY_SPEC = canonical.CanonicalSpec(0, 1, 1, 1)


def diagram_trace_params() -> bifurcation.TraceParams:
    return bifurcation.TraceParams(step=DIAGRAM_STEP, max_steps=250, value_box=(-6.0, 8.0), phase_bound=12.0)


def canonical_specs(max_n: int = 4) -> list[canonical.CanonicalSpec]:
    """Every canonical type (r, k_e, k_h, k_f) with n <= max_n (45 for 4)."""
    out = []
    for n in range(1, max_n + 1):
        for kf in range(n // 2 + 1):
            rest = n - 2 * kf
            for r in range(rest + 1):
                for ke in range(rest - r + 1):
                    out.append(canonical.CanonicalSpec(r, ke, rest - r - ke, kf))
    return out


class Workload:
    name = ""
    min_ops = 1  # operations a timed run makes at least: one pass over the inputs
    trace_ops = 1  # operations of a traced run; fixed, so call counts repeat

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> str | None:
        raise NotImplementedError

    def counts(self, out) -> dict[str, int]:
        """Work counts read off one operation's output (traced run only)."""
        return {}

    def close(self) -> None:
        pass


class KovalevskayaDiagram(Workload):
    """The g=0.5 diagram composed from the public stages, with the CLI's
    default scan seed (0): the diagram `kovalevskaya_diagram(0.5)` returns.

    The workload seed does not enter.  Measured over scan seeds, the
    diagram's time moved by up to 35 % with the seed (the seeds found decide
    which arcs are traced before deduplication), more than any bound can
    absorb; the seed-0 diagram is the one every CLI user gets.
    """

    name = "kovalevskaya-diagram"

    def __init__(self, seed: int, work_dir: str):
        self.model = kovalevskaya.build_kovalevskaya(G)
        self.expected_types = kovalevskaya.expected_vertex_types(G)
        self.vertex_values = np.array(kovalevskaya.vertex_values(G))

    def run(self, i: int):
        seeds = []
        for p in kovalevskaya.involution_fixed_points(G):
            seeds += bifurcation.seed_arcs_near_vertex(self.model, p, delta=VERTEX_DELTA)
        seeds += bifurcation.scan_singular_points(
            self.model, DIAGRAM_BOX, resolution=DIAGRAM_RESOLUTION, params=bifurcation.ScanParams(seed=0)
        )
        diagram = bifurcation.trace_diagram(self.model, seeds, diagram_trace_params())
        return diagram, len(seeds)

    def check(self, i: int, out) -> str | None:
        d, _ = out
        got = sorted(v.williamson for v in d.vertices if v.williamson is not None)
        if got != self.expected_types:
            return f"vertex types {got} != expected {self.expected_types}"
        pts = d.all_arc_values()
        if len(pts) == 0:
            return "diagram has no arc points"
        for value in self.vertex_values:
            gap = float(np.min(np.linalg.norm(pts - value, axis=1)))
            if gap > DIAGRAM_STEP:
                return f"vertex value {value.tolist()} is {gap:.3g} from the nearest arc point"
        labels = {a.label for a in d.arcs}
        if not {"elliptic-family", "hyperbolic-family"} <= labels:
            return f"arc labels {sorted(labels)} lack an elliptic or hyperbolic family"
        return None

    def counts(self, out) -> dict[str, int]:
        d, nseeds = out
        return {
            "bifurcation.seeds": nseeds,
            "bifurcation.arcs": len(d.arcs),
            "bifurcation.arc_points": sum(len(a.values) for a in d.arcs),
        }


class ClassifyDisguised(Workload):
    """`classify_point` at the marked point of seeded disguises of all 45
    canonical types with n <= 4, in a seeded shuffled order."""

    name = "classify-disguised"

    def __init__(self, seed: int, work_dir: str):
        rng = np.random.default_rng(seed)
        cases = []
        for spec in canonical_specs(4):
            model = canonical.build_canonical(spec)
            for s in rng.integers(2**31, size=DISGUISES_PER_TYPE):
                d = canonical.randomized_disguise(model, seed=int(s))
                cases.append((spec, d.model, d.point.coordinates))
        self.cases = [cases[k] for k in rng.permutation(len(cases))]
        self.min_ops = self.trace_ops = len(self.cases)

    def run(self, i: int):
        _, model, point = self.cases[i % len(self.cases)]
        return classify.classify_point(model, point)

    def check(self, i: int, out) -> str | None:
        spec = self.cases[i % len(self.cases)][0]
        if out["rank"] != spec.r:
            return f"{spec}: rank {out['rank']} != {spec.r}"
        if spec.r == spec.n:
            return None if out["status"] == "regular" else f"{spec}: status {out['status']} != regular"
        w = out.get("williamson")
        got = (w["k_e"], w["k_h"], w["k_f"]) if w else None
        if got != (spec.k_e, spec.k_h, spec.k_f):
            return f"{spec}: Williamson triple {got}, status {out['status']}"
        return None


class VerifyDisguised(Workload):
    """`intsing verify` with its default sample counts on the Kovalevskaya
    model and on a model file holding a seeded disguise of canonical:0,1,1,1."""

    name = "verify-disguised"

    def __init__(self, seed: int, work_dir: str):
        d = canonical.randomized_disguise(canonical.build_canonical(VERIFY_SPEC), seed=seed)
        fd, self.path = tempfile.mkstemp(prefix="verify-model-", suffix=".json", dir=work_dir)
        os.close(fd)
        phasespace.save_model(d.model, self.path)
        self.argvs = [
            ["verify", "--model", "kovalevskaya", "--g", str(G), "--seed", str(seed)],
            ["verify", "--model", self.path, "--seed", str(seed)],
        ]

    def run(self, i: int):
        outs = []
        for argv in self.argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            outs.append((code, buf.getvalue()))
        return outs

    def check(self, i: int, out) -> str | None:
        for argv, (code, text) in zip(self.argvs, out):
            if code != 0 or json.loads(text).get("pass") is not True:
                return f"verify {argv[2]}: exit {code}, report {text.strip()[:200]}"
        return None

    def close(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.path)


class AtomsFuzz(Workload):
    """One `random_product` draw plus the checks of `atoms check --product`:
    dict round trip, criteria (iv)/(vi), verdict and complexity.  Set-up
    builds nothing: only imports are timed."""

    name = "atoms-fuzz"
    min_ops = trace_ops = ATOMS_MIN_OPS

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed

    def run(self, i: int):
        # One generator per operation, so operation i draws the same product
        # in the plain and in the traced pass.
        p = atoms.random_product(np.random.default_rng([self.seed, i]))
        spec = atoms.product_to_dict(p)
        q = atoms.product_from_dict(spec)
        report = atoms.cross_check_criteria(q)
        verdict = atoms.stability_verdict(q)
        try:
            c = atoms.complexity(q)
        except atoms.AtomsError as exc:  # documented outcome for a non-free action
            c = exc
        return spec, q, report, verdict, c

    def check(self, i: int, out) -> str | None:
        spec, q, report, verdict, c = out
        if atoms.product_to_dict(q) != spec:
            return "product_from_dict(product_to_dict(p)) changed the product"
        if report.iv != report.vi:
            return f"(iv)={report.iv} disagrees with (vi)={report.vi}"
        if (verdict == "stable-analytic-strong-sense") != report.iv:
            return f"verdict {verdict!r} with (iv)={report.iv}"
        if isinstance(c, atoms.AtomsError):
            return None if not q.free_on_product()[0] else f"complexity raised on a free action: {c}"
        if atoms.tuple_action_free(q) and c * q.group.order != len(q.vertex_tuples()):
            return f"complexity {c} x |G|={q.group.order} != {len(q.vertex_tuples())} vertex tuples"
        return None


WORKLOADS = {w.name: w for w in (KovalevskayaDiagram, ClassifyDisguised, VerifyDisguised, AtomsFuzz)}
