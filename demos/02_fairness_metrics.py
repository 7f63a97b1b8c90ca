"""Walk through the five group-fairness metrics on a 2 x 2 example.

Users split into a disadvantaged and an advantaged group.  For each item
the metrics compare the two groups' average predicted and actual ratings,
held in (item, group) tables whose column 0 is the advantaged group and
column 1 the disadvantaged one; items rated by only one group are left out
of the per-item averages.
"""

import numpy as np

from faircf import GroupAssignment, RatingSet
from faircf.fairness import group_item_averages, metric

# User 0 is in the disadvantaged group, user 1 is not; both rate both items.
ratings = RatingSet([0, 0, 1, 1], [0, 1, 0, 1], [1.0, 3.0, 2.0, 1.0], 2, 2)
predictions = np.array([2.0, 1.0, 2.0, 2.0])
groups = GroupAssignment(np.array([True, False]))

avgs = group_item_averages(predictions, ratings, groups)
signed = avgs.avg_pred - avgs.avg_rating
for j in range(2):
    print(f"item {j}: disadvantaged error {signed[j, 1]:+.1f}, "
          f"advantaged error {signed[j, 0]:+.1f}")

print()
for kind, meaning in (("value", "mean |signed gap between groups|"),
                      ("absolute", "mean |gap between error magnitudes|"),
                      ("under", "mean |gap between underestimates|"),
                      ("over", "mean |gap between overestimates|"),
                      ("nonparity", "|overall mean prediction gap|")):
    print(f"{kind:<10} {metric(kind, avgs):.3f}   {meaning}")

# Underestimation and overestimation split the signed gap exactly.
assert abs(metric("value", avgs) - metric("under", avgs) - metric("over", avgs)) < 1e-12
print()
print("value = under + over holds item by item, so it holds for the means")

# An item seen by a single group changes nothing but non-parity.
wider = RatingSet([0, 0, 1, 1, 1], [0, 1, 0, 1, 2], [1.0, 3.0, 2.0, 1.0, 5.0], 2, 3)
wider_preds = np.concatenate([predictions, [4.0]])
wider_avgs = group_item_averages(wider_preds, wider, groups)
print(f"adding an advantaged-only item: value stays {metric('value', wider_avgs):.3f}, "
      f"nonparity moves to {metric('nonparity', wider_avgs):.3f}")
