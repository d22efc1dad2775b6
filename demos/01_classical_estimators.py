"""Classical competing-risks estimation on a tiny worked cohort.

Three subjects: an event of type 1 at t=1, a censoring at t=2, and an event
of type 2 at t=3. The script walks through the full population-level
pipeline: event grid, censoring preprocessing, count tables, Kaplan-Meier
and Aalen-Johansen.
"""

import numpy as np

from kernelaj import (
    Cohort,
    aalen_johansen,
    breslow_preprocess,
    build_event_grid,
    kaplan_meier,
    risk_event_counts,
)

cohort = Cohort(
    features=np.zeros((3, 1)),        # features are unused at the population level
    time=[1.0, 2.0, 3.0],
    event=[1, 0, 2],                  # 0 = censored
    m=2,
)

grid = build_event_grid(cohort)
print("event grid:", grid.times)      # unique uncensored times [1, 3]

pre, kappa = breslow_preprocess(cohort, grid)
print("preprocessed times:", pre.time, "(censored t=2 moved back to t=1)")
print("time-bin indices:", kappa)

d, n = risk_event_counts(pre, grid)
print("\nevent counts d (rows = grid times, cols = event types):")
print(d)
print("at-risk counts n:", n)

km = kaplan_meier(d, n, grid)
print("\nKaplan-Meier survival:")
for t in [0.5, 1.0, 2.0, 3.0, 10.0]:
    print(f"  S({t:4.1f}) = {km(t):.6f}")

cifs = aalen_johansen(d, n, grid)
print("\ncumulative incidence (event 1 jumps to 1/3 at t=1, event 2 to 2/3 at t=3):")
for t in [0.5, 1.0, 3.0]:
    f1, f2 = cifs.cif(1)(t), cifs.cif(2)(t)
    print(f"  t={t:4.1f}  F1={f1:.6f}  F2={f2:.6f}  S+F1+F2={km(t) + f1 + f2:.6f}")
