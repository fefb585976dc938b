"""Statistical equivalence of whole runs against a stored reference sample.

The reference file holds per-replicate totals of three small scenarios. The
two pooled-testing ones were recorded at commit d550a3f, before the testing
stage was vectorised and its random draws reordered. The third, without
testing but with vaccination, fast loss of immunity and self-isolation, was
recorded at commit eb36f66, before the agents moved into arrays and the
per-exposure draws were reordered. A change that reorders draws on purpose
must leave these totals distributed as before: for each scenario and each
total, a two-sided Mann-Whitney U test of the current replicates against the
stored ones must not reject at a family-wise level of 0.01 (Bonferroni over
the nine comparisons).

Power. Bootstrapping the stored sample (400 resamples of 16 against 16, at
the per-test level of 0.0011), the mean shift detected at about 80% power is
roughly: in ``average-5``, 5% in infections and 2% in tests; in
``exponential-10``, 8% and 5%; in ``no-testing-vaccination``, the one
scenario with vaccination and loss of immunity, about 10% in infections. A
shift in false isolations is out of reach in either pooled scenario: one of
12% is detected 5-12% of the time. And nothing here sees which agents a
stage chooses. The pooled scenarios run the testing day's one law, which
places the carriers in the pools and counts the rest. The 1,000-agent
scenarios stay below ``transmission.SPARSE_EXPOSURE_AGENTS``, so they run
the exposure stages' one-uniform-per-agent draws only: the per-agent
inclusion tests of ``tests/test_inclusion.py`` check the law of the exposure
draws above that size, and of a testing day's positives and of vaccination
at every size.

Print a fresh reference with ``python tests/test_equivalence.py``; replace the
stored one only when the model itself changes, never for a stream change.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

from episim.core import ScenarioConfig
from episim.engine import run

REFERENCE_PATH = Path(__file__).parent / "data" / "equivalence_reference.json"
REPLICATES = 16
TOTALS = ("total_infections", "total_tests", "total_false_isolations")
POOLED = dict(daysBetweenTesting=2, firstDayOfTesting=5, daysDelayTestResults=2)
SCENARIOS = {
    "average-5": dict(POOLED, poolingType="average", poolSize=5),
    "exponential-10": dict(POOLED, poolingType="exponential", poolSize=10),
    "no-testing-vaccination": dict(
        initProportionVaccinated=0.2, vaccinesAvailablePerDay=15, daysTilSusceptible=10,
    ),
}
FAMILY_ALPHA = 0.01
ALPHA = FAMILY_ALPHA / (len(SCENARIOS) * len(TOTALS))


def scenario_config(name):
    return ScenarioConfig(
        popSize=1000, timeHorizon=60, initialInfected=20, baseSeed=2308,
        **SCENARIOS[name],
    )


def replicate_totals(name):
    """Per-replicate totals of one scenario, replicates 0..REPLICATES-1."""
    config = scenario_config(name)
    summaries = [run(config, i)[0] for i in range(REPLICATES)]
    return {key: [getattr(s, key) for s in summaries] for key in TOTALS}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_totals_match_reference_distribution(name):
    reference = json.loads(REFERENCE_PATH.read_text())[name]
    current = replicate_totals(name)
    for key in TOTALS:
        if np.ptp(reference[key] + current[key]) == 0:
            continue  # both samples constant and equal: nothing to test
        p = mannwhitneyu(current[key], reference[key], alternative="two-sided").pvalue
        assert p >= ALPHA, (
            f"{name} {key}: p={p:.2g}; current mean {np.mean(current[key]):.1f}, "
            f"reference mean {np.mean(reference[key]):.1f}"
        )


if __name__ == "__main__":
    json.dump({name: replicate_totals(name) for name in sorted(SCENARIOS)},
              sys.stdout, indent=1)
    sys.stdout.write("\n")
