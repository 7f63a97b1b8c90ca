"""End-to-end MovieLens flow: parse, filter, split, train, evaluate.

Looks for the real MovieLens-1M archive (FAIRCF_ML1M_DIR or ./data/ml-1m).
Without it, a small synthetic archive in the same '::' format stands in so
the pipeline still runs end to end.
"""

import os
import tempfile
from pathlib import Path

import numpy as np

from faircf import TrainConfig
from faircf.experiments import evaluate
from faircf.ingest import filter_dataset, genre_stats, parse, split
from faircf.trainer import train


def find_real_archive():
    candidates = []
    if os.environ.get("FAIRCF_ML1M_DIR"):
        candidates.append(Path(os.environ["FAIRCF_ML1M_DIR"]))
    candidates.append(Path("data/ml-1m"))
    for cand in candidates:
        if all((cand / n).is_file() for n in ("users.dat", "movies.dat", "ratings.dat")):
            return cand
    return None


def write_stand_in_archive(directory):
    """Seeded fake archive: 12 users, 80 movies, enough ratings to pass
    the 50-per-user activity bar for ten of the users."""
    rng = np.random.default_rng(0)
    genre_cycle = ("Action", "Romance", "Sci-Fi|Action", "Musical|Romance", "Crime",
                   "Sci-Fi", "Musical", "Crime|Action", "Romance|Musical", "Action|Sci-Fi")
    users = [f"{uid}::{'F' if uid % 2 else 'M'}::25::{uid % 20}::55117"
             for uid in range(1, 13)]
    movies = [f"{mid}::Film {mid} (1995)::{genre_cycle[mid % 10]}"
              for mid in range(1, 65)]
    movies += [f"{mid}::Filler {mid} (2000)::Documentary" for mid in range(65, 81)]
    lines, ts = [], 978300000
    for uid in range(1, 13):
        quota = 55 if uid <= 10 else 10
        for mid in rng.choice(np.arange(1, 65), size=quota, replace=False).tolist():
            ts += 1
            lines.append(f"{uid}::{mid}::{int(rng.integers(1, 6))}::{ts}")
    directory = Path(directory)
    (directory / "users.dat").write_text("\n".join(users) + "\n", encoding="latin-1")
    (directory / "movies.dat").write_text("\n".join(movies) + "\n", encoding="latin-1")
    (directory / "ratings.dat").write_text("\n".join(lines) + "\n", encoding="latin-1")
    return directory


archive = find_real_archive()
if archive is None:
    # parse reads the whole archive, so the stand-in can go right after it.
    with tempfile.TemporaryDirectory(prefix="faircf-demo-") as workdir:
        print("real archive not found; using a generated stand-in")
        raw = parse(write_stand_in_archive(workdir))
else:
    print(f"using the MovieLens-1M archive at {archive}")
    raw = parse(archive)
print(f"parsed {len(raw.users)} users, {len(raw.movies)} movies, "
      f"{raw.num_ratings} ratings")

# Keep five genres, then users with at least 50 ratings on the kept movies.
data = filter_dataset(raw)
print(f"after filtering: {data.ratings.num_users} users, "
      f"{data.ratings.num_items} movies, {len(data.ratings)} ratings "
      f"({int(data.groups.disadvantaged.sum())} female)")
print()
print(genre_stats(data).render())

train_set, test_set = split(data, test_fraction=0.2, seed=0)
config = TrainConfig(iterations=250, penalty="value", seed=0)
params, _ = train(train_set, data.groups, config)
report = evaluate(params, test_set, data.groups)
print(f"value-penalized model on the {len(test_set)}-rating test split:")
for name, value in report.as_dict().items():
    print(f"  {name:10} {value:.3f}")
