"""The evaluation protocol's factor contract."""

import numpy as np
import pytest

from dpsr.dataio import HsiCube
from dpsr.errors import ContractError
from dpsr.metrics import evaluate


@pytest.mark.parametrize("r", [2.5, 0.5])
def test_fractional_factor_is_rejected(r):
    # 2.5 used to score with lines_discarded=2, 0.5 to crop nothing
    ref = HsiCube(np.full((14, 12, 2), 0.5))
    pred = HsiCube(ref.data[:12])
    with pytest.raises(ContractError, match="r must be an integer"):
        evaluate(pred, ref, r)
    assert evaluate(pred, ref, 2.0).lines_discarded == 2
