import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfplanepot import (
    CoverParams,
    IndicatorDensity,
    PowerDensity,
    ScenarioError,
    TabulatedDensity,
)
from halfplanepot.scenario import load_scenario, parse_scenario, read_atoms_csv

MINIMAL = {
    "schema_version": 1,
    "m": 0,
    "alpha": 1.0,
    "density": {"family": "indicator", "a": -1.0, "b": 1.0},
}


def scen(**overrides):
    data = json.loads(json.dumps(MINIMAL))
    data.update(overrides)
    return data


class TestParsing:
    def test_minimal_defaults(self):
        s = parse_scenario(scen())
        assert s.density == IndicatorDensity(-1.0, 1.0, 1.0)
        assert len(s.measure) == 0
        # beta = 2 - alpha; lambda "auto" falls back to 1 for the empty measure
        assert s.cover == CoverParams(beta=1.0, lam=1.0)
        assert s.seed == 0
        assert s.min_factor_per_decade is None

    def test_beta_defaults_to_two_minus_alpha(self):
        s = parse_scenario(scen(alpha=1.5))
        assert s.cover.beta == 0.5
        s = parse_scenario(scen(alpha=1.5, cover={"beta": 1.25}))
        assert s.cover.beta == 1.25

    def test_auto_lambda_resolves_to_lemma_minimum(self):
        s = parse_scenario(
            scen(measure={"atoms": [[0.0, 1.0, 2.0], [3.0, 2.0, 1.0]]}, cover={"beta": 1.0})
        )
        assert s.cover == CoverParams(beta=1.0, lam=5.0 * 3.0)

    def test_explicit_lambda(self):
        s = parse_scenario(scen(cover={"lambda": 2.5, "beta": 0.5}))
        assert s.cover == CoverParams(beta=0.5, lam=2.5)

    def test_density_families(self):
        s = parse_scenario(scen(density={"family": "power", "s": 0.5, "scale": 2.0}))
        assert s.density == PowerDensity(0.5, 2.0)
        s = parse_scenario(
            scen(density={"family": "tabulated", "knots": [[-1.0, 0.0], [0.0, 2.0], [1.0, 0.0]]})
        )
        assert s.density == TabulatedDensity(((-1.0, 0.0), (0.0, 2.0), (1.0, 0.0)))

    def test_plan_radii(self):
        s = parse_scenario(
            scen(plan={"rays": [math.pi / 2], "radii": {"start": 5.0, "factor": 10.0, "count": 2}})
        )
        assert s.plan.radii == (5.0, 50.0)
        assert s.search_radius == 50.0  # defaults to the largest sampled radius


class TestRejection:
    @pytest.mark.parametrize(
        "bad",
        [
            scen(schema_version=2),
            scen(extra_key=1),
            scen(density={"family": "power"}),  # missing s
            scen(density={"family": "power", "s": 1.0, "typo": 2}),
            scen(density={"family": "gaussian", "sigma": 1.0}),
            scen(m=-1),
            scen(m=33),
            scen(alpha=0.0),
            scen(alpha=2.5),
            scen(seed=1.5),
            scen(min_factor_per_decade=-0.5),
            scen(measure={"atoms": [[0.0, 0.0, 1.0]]}),  # eta = 0
            scen(measure={"atoms": [[0.0, 1.0, 1.0]], "path": "x.csv"}),
            scen(cover={"lambda": "half"}),
            scen(plan={"rays": [], "radii": {"start": 1, "factor": 10, "count": 2}}),
            scen(plan={"rays": [1.0], "radii": {"start": 1, "factor": 0.5, "count": 2}}),
            scen(quadrature={"abs_tol": -1.0}),
            scen(plan={"rays": [[1.0]], "radii": {"start": 1, "factor": 10, "count": 2}}),
            scen(seed=-5),
            scen(cover={"beta": -1.0}),
            scen(cover={"beta": -1.0, "lambda": 2.0}),
            scen(cover={"beta": 1e308}),  # 5^beta of the auto lambda overflows
            scen(cover={"beta": 1e308, "lambda": 2.0}),
            scen(cover={"lambda": -1.0}),
        ],
    )
    def test_rejected(self, bad):
        with pytest.raises(ScenarioError):
            parse_scenario(bad)

    def test_non_object(self):
        with pytest.raises(ScenarioError):
            parse_scenario([1, 2, 3])


# every numeric field a scenario can hold, at ordinary values
FULL = {
    "schema_version": 1,
    "m": 1,
    "alpha": 1.0,
    "measure": {"atoms": [[0.5, 2.0, 1.0]]},
    "cover": {"lambda": 20.0, "beta": 1.0, "search_radius": 100.0},
    "plan": {
        "rays": [1.0],
        "radii": {"start": 10.0, "factor": 10.0, "count": 3},
        "annulus_samples": 1,
    },
    "quadrature": {"abs_tol": 1e-9, "rel_tol": 1e-8, "max_depth": 40, "initial_truncation": 8.0},
    "seed": 3,
    "min_factor_per_decade": 0.5,
}
DENSITIES = [
    {"family": "power", "s": 0.5, "scale": 2.0},
    {"family": "indicator", "a": -1.0, "b": 1.0, "height": 1.0},
    {"family": "tabulated", "knots": [[-1.0, 0.0], [0.0, 2.0], [1.0, 0.0]]},
]
# what Python's json reads besides ordinary numbers, and the ends of the float range
EXTREMES = [math.nan, math.inf, -math.inf, 1e308, -1e308, 0, -0.0, 5e-324, 10**400]


def numeric_paths(obj, path=()):
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return [path] if isinstance(obj, (int, float)) and not isinstance(obj, bool) else []
    return [p for key, value in items for p in numeric_paths(value, path + (key,))]


class TestExtremeNumbers:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(DENSITIES), st.data())
    def test_parsed_or_rejected(self, density, data):
        scenario = json.loads(json.dumps(dict(FULL, density=density)))
        paths = [p for p in numeric_paths(scenario) if p != ("schema_version",)]
        path = data.draw(st.sampled_from(paths))
        target = scenario
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = data.draw(st.sampled_from(EXTREMES))
        try:
            s = parse_scenario(scenario)
        except ScenarioError:
            return
        assert all(math.isfinite(r) for r in s.plan.radii)
        q = s.quad
        scalars = (s.alpha, s.cover.lam, s.cover.beta, s.search_radius, s.min_factor_per_decade,
                   q.abs_tol, q.rel_tol, q.initial_truncation)
        assert all(math.isfinite(v) for v in scalars)

    def test_int_past_the_digit_limit(self, tmp_path):
        # json.load raises a plain ValueError for an int of more than 4300 digits
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scen()).replace('"m": 0', '"m": 1' + "0" * 5000))
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(path)


class TestAtomsCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "atoms.csv"
        path.write_text("xi,eta,weight\n1.0,2.0,0.5\n-3.5,0.25,1.25\n")
        mu = read_atoms_csv(path)
        assert len(mu) == 2
        assert mu.points[1] == complex(-3.5, 0.25)
        assert mu.weights == (0.5, 1.25)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "atoms.csv"
        path.write_text("a,b,c\n1,1,1\n")
        with pytest.raises(ScenarioError):
            read_atoms_csv(path)

    def test_bad_row(self, tmp_path):
        path = tmp_path / "atoms.csv"
        path.write_text("xi,eta,weight\n1.0,2.0\n")
        with pytest.raises(ScenarioError):
            read_atoms_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            read_atoms_csv(tmp_path / "nope.csv")

    def test_relative_path_resolution(self, tmp_path):
        (tmp_path / "atoms.csv").write_text("xi,eta,weight\n0.0,1.0,1.0\n")
        s = parse_scenario(scen(measure={"path": "atoms.csv"}), base_dir=tmp_path)
        assert len(s.measure) == 1
