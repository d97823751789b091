"""Seeded workload inputs for the benchmark.

Every workload is a fixed scenario shape whose random parts (atom positions
and weights, the certification and sweep seeds) come from the workload
seed.  The generator writes the scenario JSON and atoms CSV that the CLI
reads; it never imports the package under test, so the program sees only
these files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

RAYS = (math.pi / 6, math.pi / 4, math.pi / 2)
CUBE_ROOT_10 = 10.0 ** (1.0 / 3.0)


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the three workloads; `FULL` is what the benchmark runs."""

    verify_atoms: int
    verify_rays: int
    cert_samples: int
    solve_atoms: int
    solve_rays: int
    solve_annulus: int
    solve_radii: int
    bounds_samples: int


FULL = Sizes(
    verify_atoms=100,
    verify_rays=3,
    cert_samples=10_000,
    solve_atoms=1000,
    solve_rays=3,
    solve_annulus=4,
    solve_radii=13,
    bounds_samples=10_000,
)
# the self-test's sizes: every code path runs, in well under a second
TINY = Sizes(
    verify_atoms=8,
    verify_rays=1,
    cert_samples=200,
    solve_atoms=20,
    solve_rays=1,
    solve_annulus=1,
    solve_radii=4,
    bounds_samples=50,
)


def atom_triples(rng, n: int, r_lo: float, r_hi: float) -> List[Tuple[float, float, float]]:
    """n atoms with log-uniform radii in [r_lo, r_hi], angles uniform in
    [1e-2, pi - 1e-2] and weights uniform in [0.5, 1.5], rescaled so that the
    m = 1 mass functional sum w eta / (1 + |zeta|^3) is exactly 1."""
    r = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), n))
    th = rng.uniform(1e-2, math.pi - 1e-2, n)
    w = rng.uniform(0.5, 1.5, n)
    xi, eta = r * np.cos(th), r * np.sin(th)
    norm = math.fsum(w * eta / (1.0 + np.hypot(xi, eta) ** 3))
    return [(float(a), float(b), float(c / norm)) for a, b, c in zip(xi, eta, w)]


def write_atoms(path: Path, triples) -> None:
    lines = ["xi,eta,weight"] + [f"{x!r},{e!r},{w!r}" for x, e, w in triples]
    path.write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class Inputs:
    """The files and command line of one workload instance."""

    name: str
    workdir: Path
    config: Optional[Path]  # scenario JSON; bounds_sweep has none
    ops: int  # operations per command: grid points or sweep samples
    args: Tuple[str, ...]  # argv with {out} and {cover} standing for output files

    def argv(self, rep: int) -> List[str]:
        """argv of repetition `rep`; each repetition writes fresh output files."""
        out = str(self.workdir / f"out_{rep}.csv")
        cover = str(self.workdir / f"cover_{rep}.json")
        return [a.replace("{out}", out).replace("{cover}", cover) for a in self.args]


def _scenario(plan: dict, **extra) -> str:
    scen = {
        "schema_version": 1,
        "m": 1,
        "alpha": 1.0,
        "density": {"family": "power", "s": 1.5, "scale": 1.0},
        "measure": {"path": "atoms.csv"},
        "plan": plan,
        "quadrature": {"abs_tol": 1e-9, "rel_tol": 1e-7},
        **extra,
    }
    return json.dumps(scen, indent=1)


def make_inputs(name: str, seed: int, workdir: Path, sizes: Sizes = FULL) -> Inputs:
    """Write the workload's input files into workdir and describe its command."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sum(map(ord, name))])
    config = workdir / "scenario.json"
    if name == "verify_theorem2":
        # the criterion 11/12 scenario: 3 rays x 7 radii from 100 to 1e4
        write_atoms(workdir / "atoms.csv", atom_triples(rng, sizes.verify_atoms, 2.0, 1e3))
        plan = {
            "rays": list(RAYS[-sizes.verify_rays:]),
            "radii": {"start": 100.0, "factor": CUBE_ROOT_10, "count": 7},
        }
        config.write_text(_scenario(
            plan,
            cover={"lambda": "auto", "beta": 1.0, "search_radius": 1e4},
            seed=int(rng.integers(2**31)),  # the certification's sample seed
            min_factor_per_decade=0.6,
        ))
        ops = sizes.verify_rays * 7
        args = ("verify", "--config", str(config), "--out", "{out}", "--cover-out", "{cover}",
                "--cert-samples", str(sizes.cert_samples))
    elif name == "solve_grid":
        # rays plus annulus samples over radii 1 .. 1e4: five |z| decades
        write_atoms(workdir / "atoms.csv", atom_triples(rng, sizes.solve_atoms, 2.0, 1e4))
        plan = {
            "rays": list(RAYS[-sizes.solve_rays:]),
            "radii": {"start": 1.0, "factor": CUBE_ROOT_10, "count": sizes.solve_radii},
            "annulus_samples": sizes.solve_annulus,
        }
        config.write_text(_scenario(plan))
        ops = (sizes.solve_rays + sizes.solve_annulus) * sizes.solve_radii
        args = ("solve", "--config", str(config), "--out", "{out}")
    elif name == "bounds_sweep":
        config = None
        ops = 4 * sizes.bounds_samples
        args = (
            "bounds", "--case", "all", "--m", "4",
            "--samples", str(sizes.bounds_samples), "--seed", str(seed),
        )
    else:
        raise KeyError(f"unknown workload {name!r}")
    return Inputs(name, workdir, config, ops, args)
