"""The one verdict path: exceeds and report_lines, through both reports.

The reports are built by hand on a 3x3 grid, so every sup-norm is an
exact number placed at the centre node.  The expected summaries are the
texts the reports printed before they shared the helpers.
"""

import numpy as np
import pytest

from drmin.algebra import Kind
from drmin.mesh import DomainGrid, SurfaceMesh, exceeds, report_lines
from drmin.verify import VerificationReport
from drmin.weierstrass import ValidationReport, ValidationTolerances

GRID = DomainGrid(1.0, 2.0, -1.0, 1.0, 3, 3, 1.0, 0.0)
NAN = float("nan")


def validation_report(harmonicity=0.0, conformality=0.0, density=1.0, masked=False):
    """Default tolerances; the sup-norms and min |density| sit at the centre node."""
    cond_i = np.ones((3, 3))
    cond_i[1, 1] = density
    cond_ii_re = np.zeros((3, 3))
    cond_ii_re[1, 1] = conformality
    residual_re = np.zeros((4, 3, 3))
    residual_re[2, 1, 1] = harmonicity
    node_ok = np.ones((3, 3), dtype=bool)
    node_ok[0, 2] = not masked  # the node (u, v) = (1, 1)
    return ValidationReport(
        grid=GRID, kind=Kind.PARA, space="S41", cond_i=cond_i, cond_ii_re=cond_ii_re,
        cond_ii_im=np.zeros((3, 3)), residual_re=residual_re, residual_im=np.zeros((4, 3, 3)),
        node_ok=node_ok, tolerances=ValidationTolerances(),
    )


def verification_report(conformality=0.0, tension=0.0, density_gap=None, character="timelike"):
    """A para (timelike) mesh; |F|, the tension and the character set at the centre node."""
    mesh = SurfaceMesh(grid=GRID, nodes=np.zeros((3, 3, 4)), kind=Kind.PARA, space="S41", c=1.0)
    pullbacks = np.zeros((3, 3, 3))
    pullbacks[..., 0], pullbacks[..., 2] = -1.0, 1.0  # E + G = 0
    pullbacks[1, 1, 1] = conformality
    characters = np.full((3, 3), "timelike", dtype=object)
    characters[1, 1] = character
    field = np.full((3, 3, 4), np.nan)
    field[1, 1] = 0.0
    field[1, 1, 3] = tension
    return VerificationReport(
        mesh=mesh, pullbacks=pullbacks, characters=characters, tension=field,
        density_gap=density_gap,
    )


class TestExceeds:
    def test_within_limit(self):
        assert exceeds("tension sup-norm", 0.5, 1.0) is None
        assert exceeds("tension sup-norm", 1.0, 1.0) is None

    def test_above_limit(self):
        text = exceeds("tension sup-norm", 0.0123456, 1e-2)
        assert text == "tension sup-norm 1.235e-02 exceeds 1.0e-02"

    @pytest.mark.parametrize("limit", [0.0, 1e300, float("inf")])
    def test_nan_exceeds_every_limit(self, limit):
        assert exceeds("x", NAN, limit) == f"x nan exceeds {limit:.1e}"


class TestReportLines:
    def test_pass(self):
        assert report_lines("title", {"a": "1", "longer label": "two"}, []) == [
            "title",
            "  a                    : 1",
            "  longer label         : two",
            "  verdict: PASS",
        ]

    def test_fail_lists_every_reason(self):
        assert report_lines("title", {"a": "1"}, ["first", "second"]) == [
            "title",
            "  a                    : 1",
            "  verdict: FAIL",
            "    - first",
            "    - second",
        ]


class TestValidationVerdict:
    @pytest.mark.parametrize("kwargs, failures", [
        (dict(harmonicity=5e-11), []),
        (dict(harmonicity=3e-10), ["harmonicity sup-norm 3.000e-10 exceeds 1.0e-10"]),
        (dict(harmonicity=NAN), ["harmonicity sup-norm nan exceeds 1.0e-10"]),
        (dict(conformality=5e-11), []),
        (dict(conformality=3e-10), ["conformality sup-norm 3.000e-10 exceeds 1.0e-10"]),
        (dict(conformality=NAN), ["conformality sup-norm nan exceeds 1.0e-10"]),
        (dict(density=2e-8), []),
        (dict(density=5e-9),
         ["degenerate (non-immersion): min |density| 5.000e-09 below floor 1.0e-08"]),
        (dict(density=NAN),
         ["degenerate (non-immersion): min |density| nan below floor 1.0e-08"]),
        (dict(masked=True), ["1 nodes failed to evaluate"]),
    ])
    def test_each_check(self, kwargs, failures):
        report = validation_report(**kwargs)
        assert report.failures() == failures
        assert report.passed == (not report.failures())

    def test_pass_summary(self):
        report = validation_report(harmonicity=5e-11, conformality=2e-11, density=0.5)
        assert report.summary() == (
            "validation report (S41, para algebra, 3x3 grid)\n"
            "  harmonicity sup-norm : 5.000000e-11\n"
            "  conformality sup-norm: 2.000000e-11\n"
            "  min |density|        : 5.000000e-01\n"
            "  verdict: PASS"
        )

    def test_fail_summary_with_masked_node(self):
        report = validation_report(harmonicity=3e-10, conformality=NAN, density=5e-9, masked=True)
        assert report.summary() == (
            "validation report (S41, para algebra, 3x3 grid)\n"
            "  harmonicity sup-norm : 3.000000e-10\n"
            "  conformality sup-norm: nan\n"
            "  min |density|        : 5.000000e-09\n"
            "  verdict: FAIL\n"
            "    - 1 nodes failed to evaluate\n"
            "    - harmonicity sup-norm 3.000e-10 exceeds 1.0e-10\n"
            "    - conformality sup-norm nan exceeds 1.0e-10\n"
            "    - degenerate (non-immersion): min |density| 5.000e-09 below floor 1.0e-08\n"
            "    max residual near (u, v) = (1.5, 0)"
        )

    def test_fail_summary_names_worst_node(self):
        assert validation_report(harmonicity=3e-10).summary() == (
            "validation report (S41, para algebra, 3x3 grid)\n"
            "  harmonicity sup-norm : 3.000000e-10\n"
            "  conformality sup-norm: 0.000000e+00\n"
            "  min |density|        : 1.000000e+00\n"
            "  verdict: FAIL\n"
            "    - harmonicity sup-norm 3.000e-10 exceeds 1.0e-10\n"
            "    max residual near (u, v) = (1.5, 0)"
        )


class TestVerificationVerdict:
    @pytest.mark.parametrize("kwargs, failures", [
        (dict(conformality=5e-3), []),
        (dict(conformality=2e-2), ["conformality defect 2.000e-02 exceeds 1.0e-02"]),
        (dict(conformality=NAN), ["conformality defect nan exceeds 1.0e-02"]),
        (dict(tension=5e-3), []),
        (dict(tension=3e-2), ["tension sup-norm 3.000e-02 exceeds 1.0e-02"]),
        (dict(tension=NAN), ["tension sup-norm nan exceeds 1.0e-02"]),
        (dict(density_gap=5e-3), []),
        (dict(density_gap=4e-2), ["conformal density mismatch 4.000e-02 exceeds 1.0e-02"]),
        (dict(density_gap=NAN), ["conformal density mismatch nan exceeds 1.0e-02"]),
        (dict(character="spacelike"),
         ["causal character 'spacelike' does not match the para-algebra expectation 'timelike'"]),
        (dict(character="degenerate"),
         ["causal character 'degenerate' does not match the para-algebra expectation 'timelike'"]),
    ])
    def test_each_check(self, kwargs, failures):
        report = verification_report(**kwargs)
        assert report.failures() == failures
        assert report.passed == (not report.failures())

    def test_pass_summaries(self):
        head = (
            "verification report (S41, 3x3 mesh)\n"
            "  causal character     : timelike\n"
            "  conformality defect  : 5.000000e-03\n"
            "  tension sup-norm     : 2.500000e-03\n"
        )
        report = verification_report(conformality=5e-3, tension=2.5e-3)
        assert report.summary() == head + "  verdict: PASS"
        report.density_gap = 1e-3
        assert report.summary() == head + "  density identity gap : 1.000000e-03\n  verdict: PASS"

    def test_fail_summary(self):
        report = verification_report(
            conformality=2e-2, tension=NAN, density_gap=4e-2, character="spacelike"
        )
        assert report.summary() == (
            "verification report (S41, 3x3 mesh)\n"
            "  causal character     : spacelike\n"
            "  conformality defect  : 2.000000e-02\n"
            "  tension sup-norm     : nan\n"
            "  density identity gap : 4.000000e-02\n"
            "  verdict: FAIL\n"
            "    - causal character 'spacelike' does not match the para-algebra "
            "expectation 'timelike'\n"
            "    - conformality defect 2.000e-02 exceeds 1.0e-02\n"
            "    - tension sup-norm nan exceeds 1.0e-02\n"
            "    - conformal density mismatch 4.000e-02 exceeds 1.0e-02"
        )
