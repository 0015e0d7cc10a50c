import pytest

from conftest import T0, constant_timeline, make_blocks
from lnme.scenario import Scenario

BANDS = [0, 10, 50]


def heights(scenario):
    return [entry.height for entry in scenario.attack_blocks()]


class TestAttackBlocks:
    def test_window_includes_start_and_end(self):
        # snapshots every 600 s from T0 to T0 + 5400; blocks every 600 s
        timeline = constant_timeline(BANDS, [0, 0, 0], 10)
        trace = make_blocks(10, 2000)
        assert heights(Scenario(timeline, trace)) == list(range(1, 11))
        assert heights(Scenario(timeline, trace, start_timestamp=T0 + 3 * 600)) == list(range(4, 11))

    def test_blocks_before_start_are_skipped(self):
        timeline = constant_timeline(BANDS, [0, 0, 0], 10)
        trace = make_blocks(10, 2000, start_height=100, start=T0 - 5 * 600)
        assert heights(Scenario(timeline, trace)) == list(range(105, 110))
        assert heights(Scenario(timeline, trace, start_timestamp=T0 + 1)) == list(range(106, 110))

    def test_blocks_after_timeline_end_are_cut(self):
        timeline = constant_timeline(BANDS, [0, 0, 0], 4)  # ends at T0 + 1800
        trace = make_blocks(10, 2000)
        assert heights(Scenario(timeline, trace)) == [1, 2, 3, 4]
        late = Scenario(timeline, trace, start_timestamp=T0 + 1800 + 1)
        assert late.attack_blocks() == []

    def test_start_before_timeline_rejected(self):
        timeline = constant_timeline(BANDS, [0, 0, 0], 4)
        scenario = Scenario(timeline, make_blocks(4, 2000), start_timestamp=T0 - 1)
        with pytest.raises(ValueError, match="precedes the timeline"):
            scenario.attack_blocks()
