"""Scenario files: JSON schema, loading, and the atoms CSV format.

The schema is versioned and strict: unknown keys anywhere are rejected, so a
typo in a mathematical parameter fails fast instead of silently running a
different experiment.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .core import (
    BoundaryDensity,
    CoverParams,
    DiscreteMeasure,
    IndicatorDensity,
    PowerDensity,
    QuadratureSpec,
    ScenarioError,
    ScenarioValidation,
    TabulatedDensity,
    as_alpha,
    as_order,
    validate_scenario,
)
from .growth import SamplingPlan

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema_version",
    "m",
    "alpha",
    "density",
    "measure",
    "cover",
    "plan",
    "quadrature",
    "seed",
    "min_factor_per_decade",
}
_DENSITY_KEYS = {
    "power": {"family", "s", "scale"},
    "indicator": {"family", "a", "b", "height"},
    "tabulated": {"family", "knots"},
}
_MEASURE_KEYS = {"atoms", "path"}
_COVER_KEYS = {"lambda", "beta", "search_radius"}
_PLAN_KEYS = {"rays", "radii", "annulus_samples"}
_RADII_KEYS = {"start", "factor", "count"}
_QUAD_KEYS = {"abs_tol", "rel_tol", "max_depth", "initial_truncation"}


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"unknown key(s) {sorted(unknown)} in {where}")


def _number(obj: dict, key: str, where: str, default=None):
    if key not in obj:
        if default is None:
            raise ScenarioError(f"missing required key '{key}' in {where}")
        return default
    v = obj[key]
    # json reads NaN and +-Infinity; the exact comparison also rejects ints past the float range
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ScenarioError(f"'{key}' in {where} must be a finite number, got {v!r}")
    return v


@dataclass(frozen=True)
class Scenario:
    m: int
    alpha: float
    density: BoundaryDensity
    measure: DiscreteMeasure
    cover: CoverParams
    search_radius: float
    plan: SamplingPlan
    quad: QuadratureSpec
    seed: int
    min_factor_per_decade: Optional[float]

    def validation(self) -> ScenarioValidation:
        return validate_scenario(self.density, self.measure, self.m, self.alpha)


def _parse_density(obj, where="density") -> BoundaryDensity:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where} must be an object")
    family = obj.get("family")
    if family not in _DENSITY_KEYS:
        raise ScenarioError(
            f"{where}.family must be one of {sorted(_DENSITY_KEYS)}, got {family!r}"
        )
    _check_keys(obj, _DENSITY_KEYS[family], where)
    try:
        if family == "power":
            return PowerDensity(
                s=float(_number(obj, "s", where)),
                scale=float(_number(obj, "scale", where, default=1.0)),
            )
        if family == "indicator":
            return IndicatorDensity(
                a=float(_number(obj, "a", where)),
                b=float(_number(obj, "b", where)),
                height=float(_number(obj, "height", where, default=1.0)),
            )
        knots = obj.get("knots")
        if not isinstance(knots, list):
            raise ScenarioError(f"{where}.knots must be a list of [xi, value] pairs")
        return TabulatedDensity(tuple((float(x), float(v)) for x, v in knots))
    except (ValueError, TypeError, OverflowError) as exc:
        raise ScenarioError(f"invalid {where}: {exc}") from exc


def read_atoms_csv(path: Union[str, Path]) -> DiscreteMeasure:
    """Atoms file: CSV with header xi,eta,weight."""
    path = Path(path)
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["xi", "eta", "weight"]:
                raise ScenarioError(
                    f"atoms file {path} must start with header xi,eta,weight, "
                    f"got {header!r}"
                )
            triples = []
            for row in reader:
                if not row:
                    continue
                if len(row) != 3:
                    raise ScenarioError(f"atoms file {path}: bad row {row!r}")
                triples.append((float(row[0]), float(row[1]), float(row[2])))
    except OSError as exc:
        raise ScenarioError(f"cannot read atoms file {path}: {exc}") from exc
    except ValueError as exc:
        raise ScenarioError(f"atoms file {path}: {exc}") from exc
    try:
        return DiscreteMeasure.from_triples(triples)
    except ValueError as exc:
        raise ScenarioError(f"atoms file {path}: {exc}") from exc


def _parse_measure(obj, base_dir: Path) -> DiscreteMeasure:
    if obj is None:
        return DiscreteMeasure.empty()
    if not isinstance(obj, dict):
        raise ScenarioError("measure must be an object")
    _check_keys(obj, _MEASURE_KEYS, "measure")
    if "atoms" in obj and "path" in obj:
        raise ScenarioError("measure: give either inline atoms or a path, not both")
    if "path" in obj:
        return read_atoms_csv(base_dir / obj["path"])
    atoms = obj.get("atoms", [])
    if not isinstance(atoms, list):
        raise ScenarioError("measure.atoms must be a list of [xi, eta, weight]")
    try:
        return DiscreteMeasure.from_triples(
            (float(a), float(b), float(c)) for a, b, c in atoms
        )
    except (ValueError, TypeError, OverflowError) as exc:
        raise ScenarioError(f"invalid measure atoms: {exc}") from exc


def _parse_plan(obj) -> SamplingPlan:
    if not isinstance(obj, dict):
        raise ScenarioError("plan must be an object")
    _check_keys(obj, _PLAN_KEYS, "plan")
    rays = obj.get("rays")
    if not isinstance(rays, list) or not rays:
        raise ScenarioError("plan.rays must be a non-empty list of angles")
    radii = obj.get("radii")
    if not isinstance(radii, dict):
        raise ScenarioError("plan.radii must be an object {start, factor, count}")
    _check_keys(radii, _RADII_KEYS, "plan.radii")
    try:
        return SamplingPlan(
            rays=tuple(float(t) for t in rays),
            radius_start=float(_number(radii, "start", "plan.radii")),
            radius_factor=float(_number(radii, "factor", "plan.radii")),
            radius_count=int(_number(radii, "count", "plan.radii")),
            annulus_samples=int(_number(obj, "annulus_samples", "plan", default=0)),
        )
    except (ValueError, TypeError, OverflowError) as exc:
        raise ScenarioError(f"invalid plan: {exc}") from exc


def parse_scenario(data: dict, base_dir: Union[str, Path] = ".") -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    _check_keys(data, _TOP_KEYS, "scenario")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ScenarioError(
            f"schema_version must be {SCHEMA_VERSION}, got {data.get('schema_version')!r}"
        )
    try:
        m = as_order(int(_number(data, "m", "scenario")))
        alpha = as_alpha(_number(data, "alpha", "scenario"))
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    if "density" not in data:
        raise ScenarioError("missing required key 'density' in scenario")
    density = _parse_density(data["density"])
    measure = _parse_measure(data.get("measure"), Path(base_dir))
    plan = _parse_plan(data.get("plan")) if "plan" in data else SamplingPlan(
        rays=(math.pi / 2,), radius_start=10.0, radius_factor=10.0, radius_count=3
    )

    cover = data.get("cover", {})
    if not isinstance(cover, dict):
        raise ScenarioError("cover must be an object")
    _check_keys(cover, _COVER_KEYS, "cover")
    auto = cover.get("lambda", "auto") == "auto"
    lam = None if auto else float(_number(cover, "lambda", "cover, if not 'auto',"))
    beta = float(_number(cover, "beta", "cover", default=2.0 - alpha))
    try:
        if auto:  # 5^beta * mu(C), the covering lemma's minimum
            lam = 5.0**beta * measure.total_mass
            lam = lam if lam > 0 else 1.0
        params = CoverParams(beta=beta, lam=lam)
    except OverflowError:  # at 5^beta of an auto lambda
        msg = f"cover order beta={beta} puts 5^beta past the float range"
        raise ScenarioError(f"invalid cover: {msg}") from None
    except ValueError as exc:
        raise ScenarioError(f"invalid cover: {exc}") from exc
    max_radius = plan.radii[-1]
    search_radius = float(
        _number(cover, "search_radius", "cover", default=max(4.0, max_radius))
    )

    quad_obj = data.get("quadrature", {})
    if not isinstance(quad_obj, dict):
        raise ScenarioError("quadrature must be an object")
    _check_keys(quad_obj, _QUAD_KEYS, "quadrature")
    try:
        quad = QuadratureSpec(
            abs_tol=float(_number(quad_obj, "abs_tol", "quadrature", default=1e-9)),
            rel_tol=float(_number(quad_obj, "rel_tol", "quadrature", default=1e-9)),
            max_depth=int(_number(quad_obj, "max_depth", "quadrature", default=60)),
            initial_truncation=float(
                _number(quad_obj, "initial_truncation", "quadrature", default=8.0)
            ),
        )
    except ValueError as exc:
        raise ScenarioError(f"invalid quadrature spec: {exc}") from exc

    seed = data.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ScenarioError(f"seed must be a non-negative integer, got {seed!r}")

    mf = data.get("min_factor_per_decade")
    if mf is not None:
        mf = float(_number(data, "min_factor_per_decade", "scenario"))
        if not mf > 0:
            raise ScenarioError(f"min_factor_per_decade must be positive, got {mf!r}")

    return Scenario(
        m=m,
        alpha=alpha,
        density=density,
        measure=measure,
        cover=params,
        search_radius=search_radius,
        plan=plan,
        quad=quad,
        seed=seed,
        min_factor_per_decade=mf,
    )


def load_scenario(path: Union[str, Path]) -> Scenario:
    path = Path(path)
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    except ValueError as exc:  # also an int past the digit limit of int()
        raise ScenarioError(f"scenario {path} is not valid JSON: {exc}") from exc
    return parse_scenario(data, base_dir=path.parent)
