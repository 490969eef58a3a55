"""Oracles shared by several test modules, handed out as fixtures."""

import numpy as np
import pytest


def least_squares_gram_ratio(split) -> float:
    """lambda_min(R^T R) / sum_j ||m_beta,j||^2, where R holds the residuals
    of a weighted least-squares fit of each parametric column of ``split``
    on the action of m_g.

    An oracle for ``PartialOutReport.gram_ratio`` that reads neither
    ``partial_out`` nor the rank rule's cutoff.  Its scale is the columns'
    own squared norms, which stay of order one where m_g absorbs the
    columns and the residuals, with their trace, are roundoff.
    """
    root_w = np.sqrt(split.m_g.codomain.weights)[:, None]
    a = root_w * split.m_g.action_matrix()
    b = root_w * split.beta_matrix()
    resid = b - a @ np.linalg.lstsq(a, b, rcond=None)[0]
    return float(np.linalg.eigvalsh(resid.T @ resid)[0] / np.sum(b * b))


@pytest.fixture(scope="session")
def gram_oracle():
    return least_squares_gram_ratio
