import numpy as np
import pytest

from sympeps import suite


# Seeds whose first plane-scaling draw in moser_suite has a defect past
# 1/sqrt(2), which the correction flow refuses.
@pytest.mark.parametrize("seed", [543367333, 575395341, 687693369, 1161222629, 1406605627])
def test_moser_suite_redraws_plane_scaling_past_the_defect_limit(seed):
    # the generator run_suite hands to moser_suite
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(9)[7])
    result = suite.moser_suite(rng, suite.SCALES["smoke"]["moser_maps"])
    assert result["passed"] is True
    assert result["plane_scaling_error"] <= 1e-6


def test_random_defective_gives_up_on_an_empty_window():
    with pytest.raises(RuntimeError, match=f"in {suite.DEFECTIVE_DRAWS} draws"):
        suite.random_defective(np.random.default_rng(0), 1, 0.5, 0.4)
