"""Questionnaire score normalization.

Each participant rates each evaluation item for every stimulus/speed
cell on a 0-100 scale.  Scores are normalized per participant-item
over the full 3 stimuli x 3 speeds grid to (n - min) / (max - min);
when all nine cells are equal the whole grid maps to 0.
"""

from __future__ import annotations

import csv

from . import textio
from .errors import FormatError, IncompleteGridError

STIMULI = ("none", "vibration", "friction")
SPEEDS = (1.0, 2.5, 4.0)

# ScoreSet: {participant: {item: {(stimulus, speed): score}}}
ScoreSet = dict


def normalize_scores(scores: ScoreSet,
                     stimuli=STIMULI, speeds=SPEEDS) -> ScoreSet:
    """Min-max normalize each participant-item grid into [0, 1].

    Raises IncompleteGridError when any stimulus/speed cell is missing.
    Order within a grid is preserved and the result is invariant under
    affine rescaling of the raw grid (degenerate all-equal grids map
    to all zeros).
    """
    out: ScoreSet = {}
    for participant, items in scores.items():
        out[participant] = {}
        for item, grid in items.items():
            missing = [(s, v) for s in stimuli for v in speeds
                       if (s, v) not in grid]
            if missing:
                raise IncompleteGridError(
                    f"participant {participant!r} item {item!r} missing cells: "
                    f"{missing}")
            cells = {key: grid[key] for key in
                     ((s, v) for s in stimuli for v in speeds)}
            x_min = min(cells.values())
            x_max = max(cells.values())
            if x_max == x_min:
                out[participant][item] = {key: 0.0 for key in cells}
            else:
                out[participant][item] = {
                    key: (val - x_min) / (x_max - x_min)
                    for key, val in cells.items()
                }
    return out


def mean_across_participants(normalized: ScoreSet) -> dict:
    """Convenience reduction: mean normalized score per item and cell."""
    sums: dict = {}
    counts: dict = {}
    for items in normalized.values():
        for item, grid in items.items():
            for key, val in grid.items():
                sums.setdefault(item, {}).setdefault(key, 0.0)
                counts.setdefault(item, {}).setdefault(key, 0)
                sums[item][key] += val
                counts[item][key] += 1
    return {
        item: {key: sums[item][key] / counts[item][key] for key in sums[item]}
        for item in sums
    }


def read_scores(source) -> ScoreSet:
    """Read a `participant,item,stimulus,speed_kmh,score` CSV."""
    with textio.opened(source, "r") as fh:
        reader = csv.DictReader(fh)
        required = {"participant", "item", "stimulus", "speed_kmh", "score"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise FormatError(f"scores CSV must have columns {sorted(required)}")
        scores: ScoreSet = {}
        for lineno, row in enumerate(reader, start=2):
            try:
                score = float(row["score"])
                speed = float(row["speed_kmh"])
            except ValueError as exc:
                raise FormatError(f"line {lineno}: {exc}") from None
            if not 0 <= score <= 100:
                raise FormatError(f"line {lineno}: score {score} outside [0, 100]")
            if row["stimulus"] not in STIMULI:
                raise FormatError(
                    f"line {lineno}: unknown stimulus {row['stimulus']!r}")
            scores.setdefault(row["participant"], {}) \
                  .setdefault(row["item"], {})[(row["stimulus"], speed)] = score
    if not scores:
        raise FormatError("scores CSV has no data rows")
    return scores


def write_normalized(scores: ScoreSet, normalized: ScoreSet, dest) -> None:
    """Write the input schema plus a `normalized` column."""
    with textio.opened(dest, "w") as fh:
        fh.write("participant,item,stimulus,speed_kmh,score,normalized\n")
        for participant in sorted(scores):
            for item in sorted(scores[participant]):
                grid = scores[participant][item]
                norm = normalized[participant][item]
                for (stim, speed) in sorted(grid):
                    fh.write(f"{participant},{item},{stim},{speed!r},"
                             f"{grid[(stim, speed)]!r},{norm[(stim, speed)]!r}\n")
