"""Layer tracing for the benchmark's traced run.

The package is not instrumented.  `Tracer.install` replaces each layer's
public functions at the module attribute where their caller looks them up
(`halfplanepot.cli.build_exceptional_cover`, `halfplanepot.potentials.
modified_poisson`, ...) with timing wrappers, and `uninstall` puts the
originals back.

Layer calls (cli, scenario, covering, growth, potentials, quadrature) become
spans: name, start, end and parent, kept in memory.  Kernel calls and the
cover's point tests, about 400k per run, are only counted and timed, since
a span each would cost more than the call.  Self time is a span's duration
minus its child spans and the counted calls made directly inside it.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

_clock = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    end: float = 0.0
    child_s: float = 0.0  # time covered by child spans and direct counted calls
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._open: List[int] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.call_s: Dict[str, float] = defaultdict(float)
        self.tail_calls: Dict[str, int] = defaultdict(int)
        self.certify_contains = 0
        self._in_counted = 0
        self._patched = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, describe=None):
        """Wrap fn so each call records a span; describe(args, result) adds info."""
        spans, opened = self.spans, self._open

        def wrapper(*args, **kwargs):
            idx = len(spans)
            sp = Span(name, 0.0, opened[-1] if opened else None)
            spans.append(sp)
            opened.append(idx)
            sp.start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.end = _clock()
                opened.pop()
                if sp.parent is not None:
                    spans[sp.parent].child_s += sp.duration
            if describe is not None:
                sp.info = describe(args, result)
            return result

        return wrapper

    def counted(self, name: str, fn, tail_rule: bool = False):
        """Wrap fn so each call adds to a count and a summed time.

        With tail_rule, the call's (z, arg) is classified by the kernels'
        auto rule (|arg| > 1 and |z| <= |arg|/2) and tail calls are counted.
        """
        calls, call_s, tails = self.calls, self.call_s, self.tail_calls
        spans, opened = self.spans, self._open

        def wrapper(*args, **kwargs):
            self._in_counted += 1
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                self._in_counted -= 1
                calls[name] += 1
                call_s[name] += dt
                if tail_rule:
                    a = abs(args[1])
                    if a > 1.0 and abs(args[0]) <= 0.5 * a:
                        tails[name] += 1
                if not self._in_counted and opened:
                    sp = spans[opened[-1]]
                    sp.child_s += dt
                    if name == "contains" and sp.name == "covering.certify":
                        self.certify_contains += 1

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        import halfplanepot.cli as cli
        import halfplanepot.covering as covering
        import halfplanepot.growth as growth
        import halfplanepot.kernels as kernels
        import halfplanepot.potentials as potentials

        def poisson_info(args, res):
            quad = args[3] if len(args) > 3 else potentials.QuadratureSpec()
            az = abs(complex(args[1]))
            t0 = max(quad.initial_truncation, 2.0 * az + 1.0, 2.0)
            return {"abs_z": az, "panels": res.panels, "doublings": math.log2(res.truncation / t0),
                    "tail_share": res.tail_bound / (res.quad_error + res.tail_bound)}

        spans = [
            (cli, "main", "cli", None),
            (cli, "load_scenario", "scenario.load", None),
            (cli, "build_exceptional_cover", "covering.build",
             lambda a, r: {"balls": len(r.balls)}),
            (cli, "certify_complement", "covering.certify",
             lambda a, r: {"samples": r.samples}),
            (cli, "growth_report", "growth.report", None),
            (cli, "lemma2_sweep", "growth.sweep", None),
            (cli, "poisson_integral", "potentials.poisson_integral", poisson_info),
            (potentials, "poisson_integral", "potentials.poisson_integral", poisson_info),
            (cli, "green_potential", "potentials.green_potential",
             lambda a, r: {"atoms": len(a[0])}),
            (potentials, "green_potential", "potentials.green_potential",
             lambda a, r: {"atoms": len(a[0])}),
            (potentials, "integrate", "quadrature.integrate", lambda a, r: {"evals": r.evals}),
            (potentials, "one_shot", "quadrature.one_shot",
             lambda a, r: {"evals": 15 * (len(set(a[1])) - 1)}),
        ]
        for owner, attr, name, describe in spans:
            self._patch(owner, attr, self.span(name, getattr(owner, attr), describe))
        counted = [
            (potentials, "modified_poisson", "pm", True),
            (potentials, "modified_green", "gm", True),
            (kernels, "modified_green", "gm", True),
            (growth, "lemma2_bound", "lemma2", False),
            (covering.ExceptionalCover, "contains", "contains", False),
            (covering, "maximal_function", "maximal", False),
        ]
        for owner, attr, name, tail_rule in counted:
            self._patch(owner, attr, self.counted(name, getattr(owner, attr), tail_rule))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- per-layer metrics -------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics of everything recorded (0 for layers not run)."""
        by_name = defaultdict(list)
        for sp in self.spans:
            by_name[sp.name].append(sp)

        def total(name):
            return math.fsum(sp.duration for sp in by_name[name])

        def self_total(*names):
            return math.fsum(sp.self_s for n in names for sp in by_name[n])

        def per_call_us(name):
            n = self.calls[name]
            return 1e6 * self.call_s[name] / n if n else 0.0

        def frac(num, den):
            return num / den if den else 0.0

        def pct(values, q):
            return float(np.percentile(values, q)) if len(values) else 0.0

        out = {
            "kernels.pm_calls": self.calls["pm"],
            "kernels.pm_us": per_call_us("pm"),
            "kernels.pm_tail_frac": frac(self.tail_calls["pm"], self.calls["pm"]),
            "kernels.gm_calls": self.calls["gm"],
            "kernels.gm_us": per_call_us("gm"),
            "kernels.gm_tail_frac": frac(self.tail_calls["gm"], self.calls["gm"]),
            "kernels.lemma2_calls": self.calls["lemma2"],
            "kernels.lemma2_us": per_call_us("lemma2"),
        }

        # a call that raised has no info; the output checks count it as failed
        points = [sp for sp in by_name["potentials.poisson_integral"] if sp.info]
        evals = sum(sp.info.get("evals", 0) for n in ("quadrature.integrate", "quadrature.one_shot")
                    for sp in by_name[n])
        out.update({
            "quadrature.integrate_s": total("quadrature.integrate"),
            "quadrature.one_shot_s": total("quadrature.one_shot"),
            "quadrature.self_s": self_total("quadrature.integrate", "quadrature.one_shot"),
            "quadrature.evals_per_point": frac(evals, len(points)),
        })

        ms = [1e3 * sp.duration for sp in points]
        out["potentials.poisson_integral_ms_p50"] = pct(ms, 50)
        out["potentials.poisson_integral_ms_p90"] = pct(ms, 90)
        decade = [math.floor(math.log10(sp.info["abs_z"]) + 1e-9) for sp in points]
        for d in range(5):
            out[f"potentials.poisson_integral_ms.z1e{d}"] = pct(
                [t for t, k in zip(ms, decade) if k == d], 50
            )
        panels = [sp.info["panels"] for sp in points]
        out["potentials.panels_per_point_p50"] = pct(panels, 50)
        out["potentials.panels_per_point_max"] = float(max(panels, default=0))
        out["potentials.truncation_doublings_p50"] = pct([sp.info["doublings"] for sp in points], 50)
        out["potentials.tail_share_p50"] = pct([sp.info["tail_share"] for sp in points], 50)
        green = [sp for sp in by_name["potentials.green_potential"] if sp.info]
        out["potentials.green_potential_ms_p50"] = pct([1e3 * sp.duration for sp in green], 50)
        out["potentials.green_ns_per_atom"] = frac(
            1e9 * math.fsum(sp.duration for sp in green), sum(sp.info["atoms"] for sp in green)
        )

        certified = sum(sp.info.get("samples", 0) for sp in by_name["covering.certify"])
        out.update({
            "covering.build_s": total("covering.build"),
            "covering.balls": sum(sp.info.get("balls", 0) for sp in by_name["covering.build"]),
            "covering.certify_s": total("covering.certify"),
            "covering.certify_self_s": self_total("covering.certify"),
            "covering.contains_calls": self.calls["contains"],
            "covering.contains_us": per_call_us("contains"),
            "covering.maximal_calls": self.calls["maximal"],
            "covering.maximal_us": per_call_us("maximal"),
            "covering.cert_accept_ratio": frac(certified, self.certify_contains),
            "growth.report_s": total("growth.report"),
            "growth.report_self_s": self_total("growth.report"),
            "growth.sweep_s": total("growth.sweep"),
            "growth.sweep_self_s": self_total("growth.sweep"),
            "scenario.load_s": total("scenario.load"),
            "cli.self_s": self_total("cli"),
        })
        return out
