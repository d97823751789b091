"""Command-line front end.

Exit codes are a stable contract for CI: 0 ok, 1 config/flag error,
2 numerical failure, 3 property violation.  All numeric output is either
shortest round-trip (CSV cells) or fixed 17-significant-digit decimal
(kernel prints, cover JSON); identical inputs, including seeds, produce
byte-identical output files.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from .core import (
    DomainError,
    NumericalFailure,
    ParameterError,
    ScenarioError,
    SingularityError,
)
from .covering import (
    CoverCertificationError,
    build_exceptional_cover,
    certify_complement,
    cover_to_json,
)
from .growth import decay_assertion, growth_report, lemma2_sweep
from .kernels import (
    EvalMode,
    fundamental_solution,
    green,
    modified_fundamental,
    modified_green,
    modified_poisson,
    poisson,
)
# not called here; kept so the benchmark's layer tracer can still patch them on this module
from .potentials import green_potential, poisson_integral  # noqa: F401
from .scenario import load_scenario

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VIOLATION = 3

_COMPLEX_RE = re.compile(
    r"^(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i$"
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_complex(text: str) -> complex:
    """Complex literal a+bi / a-bi with decimal reals and no whitespace."""
    m = _COMPLEX_RE.match(text)
    if not m:
        raise UsageError(f"cannot parse complex literal {text!r}; expected a+bi")
    return complex(float(m.group("re")), float(m.group("im")))


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(c) for c in row) for row in rows)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="halfplanepot", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernel", help="evaluate one kernel at one point")
    k.add_argument("--kind", required=True, choices=["e", "em", "g", "gm", "p", "pm"])
    k.add_argument("--m", type=int, default=0)
    k.add_argument("--z", required=True, help="complex literal a+bi")
    k.add_argument("--zeta", help="complex literal a+bi (kinds e, em, g, gm)")
    k.add_argument("--xi", type=float, help="real abscissa (kinds p, pm)")
    k.add_argument("--mode", choices=["direct", "tail", "auto"], default="auto")

    s = sub.add_parser("solve", help="evaluate v, h, u over the scenario's plan grid")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)

    c = sub.add_parser("cover", help="build and certify an exceptional-set cover")
    c.add_argument("--config", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--samples", type=int, default=10_000)

    v = sub.add_parser("verify", help="growth report, cover and decay assertion")
    v.add_argument("--config", required=True)
    v.add_argument("--out", required=True)
    v.add_argument("--cover-out")
    v.add_argument("--cert-samples", type=int, default=10_000)

    b = sub.add_parser("bounds", help="kernel-inequality sweeps")
    b.add_argument("--case", required=True, choices=["1", "2", "3", "4", "all"])
    b.add_argument("--m", type=int, default=0)
    b.add_argument("--samples", type=int, default=10_000)
    b.add_argument("--seed", type=int, default=0)
    return p


def _cmd_kernel(args) -> int:
    z = parse_complex(args.z)
    needs_zeta = args.kind in ("em", "g", "gm")
    if needs_zeta and args.zeta is None:
        raise UsageError(f"--kind {args.kind} requires --zeta")
    if args.kind in ("p", "pm") and args.xi is None:
        raise UsageError(f"--kind {args.kind} requires --xi")
    try:
        if args.kind == "e":
            value = fundamental_solution(z)
        elif args.kind == "em":
            value = modified_fundamental(z, parse_complex(args.zeta), args.m)
        elif args.kind == "g":
            value = green(z, parse_complex(args.zeta))
        elif args.kind == "gm":
            value = modified_green(z, parse_complex(args.zeta), args.m, EvalMode(args.mode))
        elif args.kind == "p":
            value = poisson(z, args.xi)
        else:
            value = modified_poisson(z, args.xi, args.m, EvalMode(args.mode))
    except (SingularityError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(format(value, ".17g"))
    return EXIT_OK


def _load_valid_scenario(path: str):
    """The scenario at path, or None (after a message) if it fails the theorem hypotheses."""
    scenario = load_scenario(path)
    validation = scenario.validation()
    if not validation.ok:
        print("invalid scenario: " + "; ".join(validation.failures), file=sys.stderr)
        return None
    return scenario


def _growth_report(scenario, cover):
    """The scenario's growth report, or None (after a message naming the
    first failed point) if any point could not be evaluated."""
    report = growth_report(
        scenario.density,
        scenario.measure,
        scenario.m,
        scenario.alpha,
        scenario.plan,
        cover,
        scenario.quad,
    )
    failed = [s for s in report.samples if not s.ok]
    if failed:
        s = failed[0]
        print(
            f"numerical failure at z=({s.x}, {s.y}): {s.note}",
            file=sys.stderr,
        )
        return None
    return report


def _certified_cover(scenario, json_path, samples: int):
    """Build the scenario's cover, write its JSON to json_path (if given) and
    certify its complement; returns (cover, certification report), or None
    (after a message) if certification fails."""
    cover = build_exceptional_cover(scenario.measure, scenario.cover, scenario.search_radius)
    if json_path:
        with open(json_path, "w", newline="") as fh:
            fh.write(cover_to_json(cover))
    try:
        report = certify_complement(
            scenario.measure,
            scenario.cover,
            cover,
            samples=samples,
            seed=scenario.seed,
        )
    except CoverCertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return None
    return cover, report


def _cmd_solve(args) -> int:
    scenario = _load_valid_scenario(args.config)
    if scenario is None:
        return EXIT_CONFIG
    report = _growth_report(scenario, None)
    if report is None:
        return EXIT_NUMERICAL
    _write_csv(
        args.out,
        ["x", "y", "abs_z", "v", "h", "u", "quad_err", "tail_bound"],
        [
            (s.x, s.y, math.hypot(s.x, s.y), s.v, s.h, s.u, s.quad_error, s.tail_bound)
            for s in report.samples
        ],
    )
    return EXIT_OK


def _cmd_cover(args) -> int:
    scenario = load_scenario(args.config)
    certified = _certified_cover(scenario, args.out, args.samples)
    if certified is None:
        return EXIT_VIOLATION
    cover, report = certified
    print(
        f"cover: {len(cover.balls)} balls, budget {cover.budget:.6g} "
        f"(bound {3 * 5 ** cover.beta * scenario.measure.total_mass / cover.lam:.6g}); "
        f"certified on {report.samples} samples, worst ratio {report.worst_ratio:.6g}"
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    scenario = _load_valid_scenario(args.config)
    if scenario is None:
        return EXIT_CONFIG
    if scenario.min_factor_per_decade is None:
        print(
            "verify needs min_factor_per_decade in the scenario file",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    certified = _certified_cover(scenario, args.cover_out, args.cert_samples)
    if certified is None:
        return EXIT_VIOLATION
    cover, _cert = certified
    # the annulus sweep covers |z| < guarantee_radius; a sample on or beyond
    # it can never be flagged
    largest = scenario.plan.radii[-1]
    if largest >= cover.guarantee_radius:
        print(
            f"warning: cover search radius {scenario.search_radius:g} covers "
            f"|z| < {cover.guarantee_radius:g}, not the largest sampled radius "
            f"{largest:g}; samples beyond it cannot be flagged as exceptional",
            file=sys.stderr,
        )

    report = _growth_report(scenario, cover)
    if report is None:
        return EXIT_NUMERICAL
    _write_csv(
        args.out,
        ["x", "y", "abs_z", "v", "h", "u", "normalizer", "ratio", "in_cover"],
        [
            (
                s.x,
                s.y,
                math.hypot(s.x, s.y),
                s.v,
                s.h,
                s.u,
                s.normalizer,
                s.ratio,
                s.in_cover,
            )
            for s in report.samples
        ],
    )
    result = decay_assertion(report, scenario.min_factor_per_decade)
    worst = "n/a" if result.worst_factor is None else f"{result.worst_factor:.6g}"
    print(
        f"decay assertion: {result.status}; worst decade factor {worst} "
        f"(threshold {scenario.min_factor_per_decade})"
    )
    if result.status == "fail":
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_bounds(args) -> int:
    cases = [1, 2, 3, 4] if args.case == "all" else [int(args.case)]
    bad = 0
    for case in cases:
        rep = lemma2_sweep(case, args.m, args.samples, args.seed)
        print(
            f"case {case} m {rep.m}: {rep.violation_count} violations / "
            f"{rep.samples} samples (worst lhs/rhs {rep.worst_ratio:.12g})"
        )
        bad += rep.violation_count
    return EXIT_VIOLATION if bad else EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "kernel":
            return _cmd_kernel(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "cover":
            return _cmd_cover(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_bounds(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ScenarioError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
