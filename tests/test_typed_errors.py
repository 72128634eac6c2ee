"""Bad input fails with a typed error, never a bare `assert`: `python -O`
strips assert statements, so a check written as one would not run there
(`bounds.SelfCheckError` exists for the checks a certificate makes)."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import threshq
from threshq.gram import BadParams, dup_realization, grow_factor, jdup_realization
from threshq.spectra import DimensionMismatch

SOURCES = sorted(Path(threshq.__file__).resolve().parent.glob("*.py"))


def test_package_has_no_assert_statement():
    assert len(SOURCES) >= 8
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found


@pytest.mark.parametrize("A", [
    np.ones((2, 3)),  # not square
    np.ones(3),  # not a matrix
    np.array([[1.0, 2.0], [0.0, 1.0]]),  # not symmetric
], ids=["2x3", "1-D", "nonsymmetric"])
def test_duplication_steps_refuse_a_matrix_that_is_not_square_symmetric(A):
    with pytest.raises(DimensionMismatch):
        dup_realization(A, 0, 1.0, [1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        jdup_realization(A, 0, [0.0, 2.0])


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_grow_factor_refuses_a_lam_that_is_not_finite(lam):
    with pytest.raises(BadParams):
        grow_factor(np.eye(3), [(0, lam, 1)])
