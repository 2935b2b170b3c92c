import io

import numpy as np
import pytest

from hapstep.errors import FormatError, IncompleteGridError
from hapstep.scores import (
    SPEEDS,
    STIMULI,
    normalize_scores,
    read_scores,
    write_normalized,
)

from conftest import no_unclosed_files


def full_grid(values):
    keys = [(s, v) for s in STIMULI for v in SPEEDS]
    assert len(values) == 9
    return dict(zip(keys, values))


def one_grid(values, participant="p1", item="realism"):
    return {participant: {item: full_grid(values)}}


class TestNormalizeScores:
    def test_midpoint_formula(self):
        # min 20, max 80: a score of 50 lands exactly halfway
        grid = one_grid([20, 80, 50, 30, 40, 60, 70, 25, 35])
        norm = normalize_scores(grid)["p1"]["realism"]
        assert norm[("none", 4.0)] == 0.5

    def test_all_equal_grid_maps_to_zero(self):
        norm = normalize_scores(one_grid([40] * 9))["p1"]["realism"]
        assert all(v == 0.0 for v in norm.values())

    def test_endpoints_map_to_zero_and_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            values = rng.uniform(0, 100, size=9).tolist()
            norm = normalize_scores(one_grid(values))["p1"]["realism"]
            out = list(norm.values())
            assert min(out) == 0.0
            assert max(out) == 1.0
            assert all(0.0 <= v <= 1.0 for v in out)

    def test_order_preserved(self):
        values = [10, 20, 30, 40, 50, 60, 70, 80, 90]
        norm = normalize_scores(one_grid(values))["p1"]["realism"]
        out = list(norm.values())
        assert out == sorted(out)

    def test_affine_invariance(self):
        values = [10, 55, 30, 80, 20, 60, 45, 70, 35]
        shifted = [2.0 * v + 7.0 for v in values]
        a = normalize_scores(one_grid(values))["p1"]["realism"]
        b = normalize_scores(one_grid(shifted))["p1"]["realism"]
        for key in a:
            assert a[key] == pytest.approx(b[key], abs=1e-12)

    def test_grids_normalized_independently(self):
        scores = {"p1": {"realism": full_grid([0] * 8 + [100])},
                  "p2": {"realism": full_grid([40] * 8 + [50])}}
        norm = normalize_scores(scores)
        assert norm["p1"]["realism"][("friction", 4.0)] == 1.0
        assert norm["p2"]["realism"][("friction", 4.0)] == 1.0

    def test_missing_cell_rejected(self):
        grid = one_grid(list(range(9)))
        del grid["p1"]["realism"][("friction", 4.0)]
        with pytest.raises(IncompleteGridError, match="friction"):
            normalize_scores(grid)


CSV = "participant,item,stimulus,speed_kmh,score\n" + "".join(
    f"p1,realism,{s},{v},{10 * i}\n"
    for i, (s, v) in enumerate((s, v) for s in STIMULI for v in SPEEDS))


class TestScoresIo:
    def test_path_input_is_closed(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(CSV)
        with no_unclosed_files():
            assert read_scores(str(path)) == read_scores(io.StringIO(CSV))

    def test_read_scores(self):
        scores = read_scores(io.StringIO(CSV))
        assert scores["p1"]["realism"][("none", 1.0)] == 0.0
        assert scores["p1"]["realism"][("friction", 4.0)] == 80.0

    def test_write_normalized_round_trip(self, tmp_path):
        scores = read_scores(io.StringIO(CSV))
        norm = normalize_scores(scores)
        path = tmp_path / "out.csv"
        write_normalized(scores, norm, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "participant,item,stimulus,speed_kmh,score,normalized"
        assert len(lines) == 10
        last_cols = {float(line.rsplit(",", 1)[1]) for line in lines[1:]}
        assert {0.0, 1.0} <= last_cols

    def test_score_out_of_range_rejected(self):
        bad = "participant,item,stimulus,speed_kmh,score\np1,r,none,1.0,120\n"
        with pytest.raises(FormatError, match="outside"):
            read_scores(io.StringIO(bad))

    def test_errors_name_physical_lines(self):
        """Blank lines count: a bad row after two of them is named by its
        own line, as is a repeated cell and the line it repeats."""
        head = "participant,item,stimulus,speed_kmh,score\n\n\n"
        with pytest.raises(FormatError, match="^line 4: score 500.0 outside"):
            read_scores(io.StringIO(head + "p1,r,none,1.0,500\n"))
        rows = "p1,r,none,1.0,5\n\np1,r,none,1.0,6\n"
        with pytest.raises(FormatError, match="^line 6: repeats the cell of line 4$"):
            read_scores(io.StringIO(head + rows))

    def test_unknown_stimulus_rejected(self):
        bad = "participant,item,stimulus,speed_kmh,score\np1,r,magnet,1.0,50\n"
        with pytest.raises(FormatError, match="stimulus"):
            read_scores(io.StringIO(bad))

    def test_missing_columns_rejected(self):
        with pytest.raises(FormatError):
            read_scores(io.StringIO("participant,item\np1,r\n"))

    def test_empty_body_rejected(self):
        with pytest.raises(FormatError):
            read_scores(io.StringIO("participant,item,stimulus,speed_kmh,score\n"))

    def test_stream_input(self):
        assert read_scores(io.StringIO(CSV))
