"""Questionnaire score normalization.

Each participant rates each evaluation item for every stimulus/speed
cell on a 0-100 scale.  Scores are normalized per participant-item
over the full 3 stimuli x 3 speeds grid to (n - min) / (max - min);
when all nine cells are equal the whole grid maps to 0.
"""

from __future__ import annotations

import csv

from . import textio
from .errors import FormatError

STIMULI = ("none", "vibration", "friction")
SPEEDS = (1.0, 2.5, 4.0)

# ScoreSet: {participant: {item: {(stimulus, speed): score}}}
ScoreSet = dict


def normalize_scores(scores: ScoreSet) -> ScoreSet:
    """Min-max normalize each participant-item grid into [0, 1].

    Raises FormatError when any stimulus/speed cell is missing.
    Order within a grid is preserved and the result is invariant under
    affine rescaling of the raw grid (degenerate all-equal grids map
    to all zeros).
    """
    out: ScoreSet = {}
    for participant, items in scores.items():
        out[participant] = {}
        for item, grid in items.items():
            missing = [(s, v) for s in STIMULI for v in SPEEDS
                       if (s, v) not in grid]
            if missing:
                raise FormatError(
                    f"participant {participant!r} item {item!r} missing cells: "
                    f"{missing}")
            cells = {key: grid[key] for key in
                     ((s, v) for s in STIMULI for v in SPEEDS)}
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


def read_scores(source) -> ScoreSet:
    """Read a `participant,item,stimulus,speed_kmh,score` CSV."""
    with textio.opened(source, "r") as fh:
        reader = csv.DictReader(fh)
        required = {"participant", "item", "stimulus", "speed_kmh", "score"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise FormatError(f"scores CSV must have columns {sorted(required)}")
        scores: ScoreSet = {}
        lines = {}  # (participant, item, stimulus, speed) -> its line
        for row in reader:
            lineno = reader.line_num  # the row's last physical line
            try:
                score = float(row["score"])
                speed = float(row["speed_kmh"])
            except (TypeError, ValueError) as exc:  # TypeError: a short row
                raise FormatError(f"line {lineno}: {exc}") from None
            if not 0 <= score <= 100:
                raise FormatError(f"line {lineno}: score {score} outside [0, 100]")
            if row["stimulus"] not in STIMULI:
                raise FormatError(
                    f"line {lineno}: unknown stimulus {row['stimulus']!r}")
            if speed not in SPEEDS:
                raise FormatError(f"line {lineno}: speed {speed} is not one of {SPEEDS}")
            cell = (row["participant"], row["item"], row["stimulus"], speed)
            if cell in lines:
                raise FormatError(f"line {lineno}: repeats the cell of line {lines[cell]}")
            lines[cell] = lineno
            scores.setdefault(row["participant"], {}) \
                  .setdefault(row["item"], {})[(row["stimulus"], speed)] = score
    if not scores:
        raise FormatError("scores CSV has no data rows")
    return scores


def write_normalized(scores: ScoreSet, normalized: ScoreSet, dest) -> None:
    """Write the input schema plus a `normalized` column, as read_scores reads it."""
    with textio.opened(dest, "w") as fh:
        fh.write("participant,item,stimulus,speed_kmh,score,normalized\n")
        rows = csv.writer(fh, lineterminator="\n")
        for participant, items in sorted(scores.items()):
            for item, grid in sorted(items.items()):
                norm = normalized[participant][item]
                rows.writerows((participant, item, *cell, score, norm[cell])
                               for cell, score in sorted(grid.items()))
