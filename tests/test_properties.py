"""Property tests of the paper's statements over random catalogue
parameters.  Examples are derandomized and bounded, so every run checks
the same cases."""

import numpy as np
from hypothesis import given, settings, strategies as st

from lagtransport.fields import logistic_field, oscillatory_field
from lagtransport.flow import check_compressibility, flow_map
from lagtransport.grid import GridSpec

PROPERTY_SETTINGS = settings(
    max_examples=25, derandomize=True, deadline=None, database=None,
)


@PROPERTY_SETTINGS
@given(
    name=st.sampled_from(["logistic", "oscillatory"]),
    k=st.integers(1, 4),
    mu=st.floats(-1.0, 1.0),
    j=st.integers(0, 1),
    num=st.integers(2, 9),
    t_end=st.floats(0.05, 1.0),
    direction=st.sampled_from(["forward", "backward"]),
)
def test_density_bounds_hold_in_both_directions(
    name, k, mu, j, num, t_end, direction,
):
    # exp(-int ||div b||) <= exp(logJ) <= exp(int ||div b||) along every
    # stored trajectory, for the whole field and for its x block
    if name == "logistic":
        field, j = logistic_field(k=k, mu=mu), 1
    else:
        field = oscillatory_field(k=k, j=j)
    grid = GridSpec(
        x_bounds=((-np.pi, np.pi),), x_counts=(9,),
        r_bounds=((0.05, 0.95),) if j else (), r_counts=(5,) if j else (),
    )
    fmap = flow_map(field, grid, times=np.linspace(0.0, t_end, num),
                    direction=direction)
    report = check_compressibility(fmap, field)
    assert report.ok, report.violations
