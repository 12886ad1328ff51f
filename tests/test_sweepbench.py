"""The sweep benchmark's hooks into the package: what it patches and what it checks."""

import sys
from pathlib import Path

import numpy as np
import pytest

from ptf_lab.distributions import EXACT, FLOAT
from ptf_lab.instances import true_labels

from util import make_instance

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "sweepbench"))
import checks  # noqa: E402
import layers  # noqa: E402


def test_every_traced_attribute_exists():
    for layer, owner, name, _ in layers.TARGETS:
        assert callable(getattr(owner, name, None)), layer


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_exact_label_check_equals_true_labels(backend):
    inst = make_instance(512, 6, seed=77, backend=backend)
    reference = checks.exact_labels(inst.hidden.coeffs, inst.points)
    assert np.array_equal(reference, true_labels(inst))
