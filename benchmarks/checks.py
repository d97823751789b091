"""Output checks for the benchmark workloads.

Each check reads only the files and text a CLI command produced, plus the
workload's own input files, and returns a list of failure messages (empty
when the output is correct).  None of them calls the package under test:
the oracles are an mpmath quadrature for v and a numpy complex-log sum for
h, so a defect in the library cannot hide in its own check.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path
from typing import List, Tuple

import numpy as np

from workloads import Inputs

_BOUNDS_LINE = re.compile(r"^case (\d) m (\d+): (\d+) violations / (\d+) samples")
_EPS = np.finfo(float).eps


def read_csv(path: Path) -> Tuple[List[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(c) for c in row] for row in rows[1:]], dtype=float)


def read_atoms(path: Path) -> np.ndarray:
    """Atoms CSV as an (n, 3) array of xi, eta, weight."""
    return read_csv(path)[1].reshape(-1, 3)


def check_command(inp: Inputs, rep: int, rc: int, stdout: str, stderr: str) -> List[str]:
    """Checks on one command's own output."""
    if rc != 0:
        return [f"exit code {rc}: {stderr.strip()[-300:]}"]
    try:
        if inp.name == "verify_theorem2":
            return _check_verify(inp, rep, stdout, stderr)
        if inp.name == "solve_grid":
            return _check_solve(inp, rep)
        return _check_bounds(inp, stdout)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def _check_verify(inp: Inputs, rep: int, stdout: str, stderr: str) -> List[str]:
    fails = []
    if "decay assertion: pass;" not in stdout:
        fails.append(f"decay status is not pass: {stdout.strip()!r}")
    if "certification failed" in stderr:
        fails.append("certification reported violations")
    rows = (inp.workdir / f"out_{rep}.csv").read_text().splitlines()[1:]
    if len(rows) != inp.ops:
        fails.append(f"growth CSV has {len(rows)} rows, expected {inp.ops}")
    fails += _check_cover_budget(inp.workdir / f"cover_{rep}.json", inp.workdir / "atoms.csv")
    return fails


def _check_cover_budget(cover_path: Path, atoms_path: Path) -> List[str]:
    """sum (r_j/|c_j|)^beta, recomputed from the cover JSON, is at most
    3 * 5^beta * mu(C) / lambda, and agrees with the budget the file states."""
    cover = json.loads(cover_path.read_text())
    beta, lam = float(cover["beta"]), float(cover["lambda"])
    budget = math.fsum((b["r"] / math.hypot(b["cx"], b["cy"])) ** beta for b in cover["balls"])
    mass = math.fsum(read_atoms(atoms_path)[:, 2])
    bound = 3.0 * 5.0**beta * mass / lam
    fails = []
    if not budget <= bound:
        fails.append(f"cover budget {budget!r} exceeds 3*5^beta*mu(C)/lambda = {bound!r}")
    if not abs(budget - float(cover["budget"])) <= 1e-12 * bound:
        fails.append(f"cover states budget {cover['budget']!r}, balls give {budget!r}")
    return fails


def _check_bounds(inp: Inputs, stdout: str) -> List[str]:
    samples = int(inp.args[inp.args.index("--samples") + 1])
    seen = {}
    for line in stdout.splitlines():
        m = _BOUNDS_LINE.match(line)
        if m:
            seen[int(m.group(1))] = (int(m.group(3)), int(m.group(4)))
    fails = []
    for case in (1, 2, 3, 4):
        if case not in seen:
            fails.append(f"no result line for case {case}")
        elif seen[case] != (0, samples):
            fails.append(f"case {case}: {seen[case][0]} violations / {seen[case][1]} samples")
    return fails


def _scenario(inp: Inputs) -> dict:
    return json.loads(inp.config.read_text())


def _check_solve(inp: Inputs, rep: int) -> List[str]:
    header, rows = read_csv(inp.workdir / f"out_{rep}.csv")
    if header != ["x", "y", "abs_z", "v", "h", "u", "quad_err", "tail_bound"]:
        return [f"unexpected solve CSV header {header}"]
    fails = []
    if len(rows) != inp.ops:
        fails.append(f"solve CSV has {len(rows)} rows, expected {inp.ops}")
    if not np.array_equal(rows[:, 5], rows[:, 3] + rows[:, 4]):
        fails.append("u != v + h")
    atoms = read_atoms(inp.workdir / "atoms.csv")
    m = int(_scenario(inp)["m"])
    z = rows[:, 0] + 1j * rows[:, 1]
    h_ref, h_tol = green_potential_numpy(atoms, z, m)
    bad = np.flatnonzero(~(np.abs(rows[:, 4] - h_ref) <= h_tol))
    if bad.size:
        i = bad[0]
        fails.append(
            f"h at z={z[i]} is {rows[i, 4]!r}, numpy reference {h_ref[i]!r} "
            f"(tolerance {h_tol[i]:.3e}); {bad.size} points differ"
        )
    return fails


def green_potential_numpy(atoms: np.ndarray, z: np.ndarray, m: int):
    """h(z) = sum_j w_j G_m(z, zeta_j) from complex logarithms, with a
    rounding envelope: 64 eps times the summed magnitudes of every term.

    G_m = [Re log(z - zeta) - Re log(z - conj zeta)
           + Re sum_{k=1}^{m} ((z/zeta)^k - (z/conj zeta)^k) / k] / (2 pi),
    the correction applying for |zeta| > 1 only.
    """
    zeta = atoms[:, 0] + 1j * atoms[:, 1]
    w = atoms[:, 2]
    zz = z[:, None]
    a = np.log(zz - zeta).real
    b = np.log(zz - np.conj(zeta)).real
    corr = np.zeros_like(a)
    size = np.abs(a) + np.abs(b) + 1.0
    far = np.abs(zeta) > 1.0
    for k in range(1, m + 1):
        p, q = (zz / zeta) ** k / k, (zz / np.conj(zeta)) ** k / k
        corr += np.where(far, (p - q).real, 0.0)
        size += np.where(far, np.abs(p) + np.abs(q), 0.0)
    terms = w * (a - b + corr) / (2.0 * math.pi)
    h = np.array([math.fsum(row) for row in terms])
    tol = 64.0 * _EPS * (w * size).sum(axis=1) / (2.0 * math.pi)
    return h, tol


def oracle_rows(rows: np.ndarray, seed: int) -> List[int]:
    """One solve_grid row per |z| decade, drawn by the seed."""
    decades = np.floor(np.log10(rows[:, 2]) + 1e-9).astype(int)
    rng = np.random.default_rng([seed, 7])
    return [int(rng.choice(np.flatnonzero(decades == d))) for d in np.unique(decades)]


def check_poisson_oracle(inp: Inputs, rep: int, seed: int) -> Tuple[List[str], float]:
    """|v - v_oracle| <= quad_err + tail_bound at one point per |z| decade.

    Returns the failures and the largest ratio |v - v_oracle| /
    (quad_err + tail_bound); honest error estimates keep it <= 1.
    """
    scen = _scenario(inp)
    dens = scen["density"]
    header, rows = read_csv(inp.workdir / f"out_{rep}.csv")
    fails, worst = [], 0.0
    for i in oracle_rows(rows, seed):
        x, y, _, v, _, _, qerr, tail = rows[i]
        ref, ref_err = poisson_oracle(complex(x, y), int(scen["m"]), dens["s"], dens["scale"])
        budget = qerr + tail
        if not ref_err <= 1e-3 * budget:
            fails.append(f"oracle at z={complex(x, y)} is not converged ({ref_err:.3e})")
        ratio = abs(v - ref) / budget
        worst = max(worst, ratio)
        if not ratio <= 1.0:
            fails.append(
                f"v at z={complex(x, y)} is {v!r}, oracle {ref!r}: error "
                f"{abs(v - ref):.3e} > quad_err + tail_bound = {budget:.3e}"
            )
    return fails, worst


def poisson_oracle(z: complex, m: int, s: float, scale: float) -> Tuple[float, float]:
    """v(z) for f = scale |xi|^s at 25 digits, with mpmath's error estimate.

    [-T, T] with T = max(2|z|, 2) is integrated by tanh-sinh quadrature with
    breakpoints at the kernel and density kinks and around the peak at x;
    beyond T the kernel is the series (1/pi) Im sum_{k>m} z^k / xi^{k+1},
    which integrates in closed form to
    (2 scale / pi) sum_{k odd, k > m} Im(z^k) T^{s-k} / (k - s).
    """
    import mpmath as mp

    with mp.workdps(25):
        x, y = mp.mpf(z.real), mp.mpf(z.imag)
        zz = mp.mpc(x, y)
        lead = [mp.im(zz**k) for k in range(m + 1)]

        def f(xi):
            p = y / ((x - xi) ** 2 + y * y)
            if abs(xi) > 1:
                p -= sum(c / xi ** (k + 1) for k, c in enumerate(lead))
            return p * scale * abs(xi) ** s / mp.pi

        T = max(2.0 * abs(z), 2.0)
        pts = {-T, -1.0, 0.0, 1.0, T}
        for d in (0.0, 1.0, 4.0, 16.0, 64.0):
            pts.update(p for p in (z.real - d * z.imag, z.real + d * z.imag) if -T < p < T)
        val, err = mp.quad(f, sorted(mp.mpf(p) for p in pts), error=True)
        tail, k = mp.mpf(0), m + 1
        while True:  # ratio (|z|/T)^2 <= 1/4 between odd terms
            if k % 2:
                term = mp.im(zz**k) * mp.mpf(T) ** (s - k) / (k - s)
                tail += term
                if abs(term) <= mp.mpf(10) ** -28 * abs(tail):
                    break
            k += 1
        return float(val + 2 * scale * tail / mp.pi), float(err)
