import io

import numpy as np
import pytest

from hapstep.errors import ConfigError, FormatError
from hapstep.trace import ForceTrace, load_trace, rate_from_times, write_trace

from conftest import dump_trace, no_unclosed_files

HEADER = "# rate_hz=1000.0 speed_kmh=2.5 participant=p01\n"


def test_three_rows_at_1khz():
    csv = HEADER + "t,thenar_y,heel_y\n0.0,0.1,0.2\n0.001,0.3,0.4\n0.002,0.5,0.6\n"
    tr = load_trace(io.StringIO(csv))
    assert len(tr) == 3
    assert tr.sample_rate_hz == 1000.0
    assert tr.speed_kmh == 2.5
    assert tr.participant == "p01"


def test_sign_negated_at_ingest():
    csv = HEADER + "t,thenar_y,heel_y\n0.0,0.0,1.0\n"
    tr = load_trace(io.StringIO(csv))
    assert tr.heel_y[0] == -1.0


def test_round_trip_is_identity():
    rng = np.random.default_rng(7)
    tr = ForceTrace(
        sample_rate_hz=1000.0,
        thenar_y=rng.normal(size=250),
        heel_y=rng.normal(size=250),
        thenar_z=rng.normal(size=250),
        heel_z=rng.normal(size=250),
        speed_kmh=4.0,
        participant="p02",
    )
    text = dump_trace(tr)
    back = load_trace(io.StringIO(text))
    for chan in ("thenar_y", "heel_y", "thenar_z", "heel_z"):
        assert np.array_equal(getattr(tr, chan), getattr(back, chan))
    assert back.sample_rate_hz == tr.sample_rate_hz
    assert (back.speed_kmh, back.participant) == (tr.speed_kmh, tr.participant)
    # and the writer is stable: re-dumping yields identical bytes
    assert dump_trace(back) == text


def test_write_trace_to_file(tmp_path):
    tr = ForceTrace(1000.0, [0.1, 0.2], [0.3, 0.4], 2.5, "p01")
    path = tmp_path / "t.csv"
    write_trace(tr, path)
    assert np.array_equal(load_trace(str(path)).thenar_y, tr.thenar_y)


@pytest.mark.parametrize("speed", [-1.0, float("nan"), float("inf")])
def test_trace_speed_must_be_finite_and_not_negative(speed):
    """A speed the trace-CSV header could not hold is refused where the
    trace is built, not only when its file is read back."""
    with pytest.raises(ConfigError, match="speed_kmh"):
        ForceTrace(1000.0, [0.1], [0.3], speed, "p01")


def test_trace_duration_must_be_finite():
    """5e-324 Hz is a finite, positive rate, but two samples at it last
    longer than the float range, so the written t column would hold inf."""
    with pytest.raises(ConfigError, match="duration_s"):
        ForceTrace(5e-324, [0.1, 0.2], [0.3, 0.4], 2.5, "p01")


@pytest.mark.parametrize("rate", [0.0, -1000.0])
def test_trace_rate_must_be_positive(rate):
    with pytest.raises(ConfigError, match="sample_rate_hz must be positive"):
        ForceTrace(rate, [0.1], [0.3], 2.5, "p01")


@pytest.mark.parametrize("y, z, message", [
    pytest.param(([0.1, 0.2], [0.3]), (None, None), "equal length", id="y-lengths"),
    pytest.param(([0.1], [0.3]), ([0.5], None), "both sites or neither", id="one-z"),
    pytest.param(([0.1], [0.3]), ([0.5], [0.6, 0.7]), "all channels", id="z-length"),
])
def test_trace_channels_must_match(y, z, message):
    with pytest.raises(FormatError, match=message):
        ForceTrace(1000.0, *y, 2.5, "p01", *z)


@pytest.mark.parametrize("participant", ["p 1", "p\t1", "p1\n", "p\u20281"])
def test_trace_participant_must_hold_no_whitespace(participant):
    """The header's whitespace-separated tokens could not hold it."""
    with pytest.raises(ConfigError, match="whitespace"):
        ForceTrace(1000.0, [0.1], [0.3], 2.5, participant)


@pytest.mark.parametrize("body", [
    "# rate_hz=5e-324\nthenar_y,heel_y\n0.0,0.0\n",
    "t,thenar_y,heel_y\n-8e307,0,0\n0,0,0\n8e307,0,0\n1.6e308,0,0\n",
], ids=["subnormal-header-rate", "huge-time-steps"])
def test_clock_past_float_range_is_malformed(body):
    """A clock whose duration overflows is a FormatError, without a numpy
    warning (which fails the test)."""
    with pytest.raises(FormatError, match="duration_s"):
        load_trace(io.StringIO(body))


def test_rate_inferred_from_time_column():
    csv = "# speed_kmh=1.0 participant=x\nt,thenar_y,heel_y\n" + \
          "".join(f"{i/500}," "0.0,0.0\n" for i in range(5))
    tr = load_trace(io.StringIO(csv))
    assert tr.sample_rate_hz == pytest.approx(500.0)


@pytest.mark.parametrize("header_rate, ok", [(1009.0, True), (991.0, True),
                                             (1011.0, False), (989.0, False),
                                             (500.0, False)])
def test_header_rate_must_match_time_column(header_rate, ok):
    """Within TIME_JITTER_TOL of the time column the header rate wins."""
    csv = f"# rate_hz={header_rate!r}\nt,thenar_y,heel_y\n" + \
          "".join(f"{i / 1000},0.0,0.0\n" for i in range(5))
    if ok:
        assert load_trace(io.StringIO(csv)).sample_rate_hz == header_rate
    else:
        with pytest.raises(FormatError, match="does not match"):
            load_trace(io.StringIO(csv))


def test_malformed_row_reports_line_number():
    csv = HEADER + "t,thenar_y,heel_y\n0.0,0.1,0.2\n0.001,oops,0.4\n"
    with pytest.raises(FormatError, match="line 4"):
        load_trace(io.StringIO(csv))


def test_wrong_field_count_rejected():
    csv = HEADER + "t,thenar_y,heel_y\n0.0,0.1\n"
    with pytest.raises(FormatError, match="line 3"):
        load_trace(io.StringIO(csv))


def test_non_uniform_time_spacing_rejected():
    csv = HEADER + "t,thenar_y,heel_y\n0.0,0,0\n0.001,0,0\n0.0025,0,0\n"
    with pytest.raises(FormatError, match="jitter"):
        load_trace(io.StringIO(csv))


@pytest.mark.parametrize("t", [(0.0, 0.0, 0.0), (0.002, 0.001, 0.0),
                               (0.0, float("nan"), 0.002)],
                         ids=["constant", "decreasing", "nan"])
def test_time_column_must_increase(t):
    # checked even though the header declares the rate
    csv = HEADER + "t,thenar_y,heel_y\n" + "".join(f"{x},0,0\n" for x in t)
    with pytest.raises(FormatError, match="strictly increasing"):
        load_trace(io.StringIO(csv))


@pytest.mark.parametrize("t", [np.arange(8) * 5e-324, np.arange(8) * 1e-310,
                               np.array([-1e308, 1e308])],
                         ids=["smallest-subnormal", "subnormal", "overflowing"])
def test_time_step_without_a_rate(t):
    """1 / a subnormal step overflows to inf, and a step past the float
    range is inf, whose rate is 0: neither is a rate, so the column is
    malformed rather than on a 1 kHz grid or a 0.0 clock."""
    with pytest.raises(FormatError, match="no finite, positive sample rate"):
        rate_from_times(t)
    csv = HEADER + "t,thenar_y,heel_y\n" + "".join(f"{x!r},0,0\n" for x in t.tolist())
    with pytest.raises(FormatError, match="no finite, positive sample rate"):
        load_trace(io.StringIO(csv))


def test_empty_body_rejected():
    with pytest.raises(FormatError, match="no data rows"):
        load_trace(io.StringIO(HEADER + "t,thenar_y,heel_y\n"))


def test_no_silent_row_drops():
    n = 137
    body = "".join(f"{i/1000},{i},{-i}\n" for i in range(n))
    tr = load_trace(io.StringIO(HEADER + "t,thenar_y,heel_y\n" + body))
    assert len(tr) == n


def test_nonfinite_values_rejected():
    csv = HEADER + "t,thenar_y,heel_y\n0.0,nan,0.0\n"
    with pytest.raises(FormatError):
        load_trace(io.StringIO(csv))


def test_stream_input():
    csv = HEADER + "t,thenar_y,heel_y\n0.0,0.1,0.2\n"
    assert len(load_trace(io.StringIO(csv))) == 1


def test_path_input_is_closed(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(HEADER + "t,thenar_y,heel_y\n0.0,0.1,0.2\n")
    with no_unclosed_files():
        assert len(load_trace(str(path))) == 1
