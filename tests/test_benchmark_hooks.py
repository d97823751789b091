"""The names that benchmarks/tracing.py patches or reads.

The traced benchmark run replaces these module attributes with timing
wrappers and reads these result fields; it fails if one disappears or
changes kind, so a refactor that moves one should fail here first.
"""

import dataclasses

import pytest

import halfplanepot.cli as cli
import halfplanepot.covering as covering
import halfplanepot.growth as growth
import halfplanepot.kernels as kernels
import halfplanepot.potentials as potentials
from halfplanepot.covering import CertificationReport, ExceptionalCover
from halfplanepot.potentials import PoissonIntegralResult
from halfplanepot.quadrature import QuadResult

PATCHED = [
    (cli, "main"),
    (cli, "load_scenario"),
    (cli, "build_exceptional_cover"),
    (cli, "certify_complement"),
    (cli, "growth_report"),
    (cli, "lemma2_sweep"),
    (cli, "poisson_integral"),
    (cli, "green_potential"),
    (potentials, "poisson_integral"),
    (potentials, "green_potential"),
    (potentials, "integrate"),
    (potentials, "one_shot"),
    (potentials, "modified_poisson"),
    (potentials, "modified_green"),
    (kernels, "modified_green"),
    (growth, "lemma2_bound"),
    (covering.ExceptionalCover, "contains"),
    (covering, "maximal_function"),
]

FIELDS = [
    (PoissonIntegralResult, "truncation"),
    (PoissonIntegralResult, "tail_bound"),
    (PoissonIntegralResult, "quad_error"),
    (PoissonIntegralResult, "panels"),
    (QuadResult, "evals"),
    (CertificationReport, "samples"),
    (ExceptionalCover, "balls"),
]


@pytest.mark.parametrize("owner,name", PATCHED, ids=lambda v: getattr(v, "__name__", v))
def test_patched_name_is_callable(owner, name):
    assert callable(getattr(owner, name, None))


@pytest.mark.parametrize("cls,name", FIELDS, ids=lambda v: getattr(v, "__name__", v))
def test_read_field_exists(cls, name):
    assert name in {f.name for f in dataclasses.fields(cls)}


def test_one_shot_takes_the_breakpoints_second():
    # the tracer counts one_shot's evaluations from its second argument
    pts = [0.0, 0.5, 2.0, 2.0]
    assert len(potentials.one_shot(lambda x: 1.0, pts)) == len(set(pts)) - 1
