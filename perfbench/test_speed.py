"""Tests of the speed probe; run from the repository root with

    python3 -m pytest perfbench -q
"""

import os
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402


def test_probe_samples_during_the_body_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    probe = speed.Probe()
    with probe:
        end = time.process_time() + 1.0
        while time.process_time() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.spent_s > 0  # sampled while the body ran
    assert len(probe.samples) >= speed.MIN_SAMPLES
    assert probe.spent_s < 0.5
    assert probe.scale() > 0


def test_a_brief_body_is_sampled_after_it():
    probe = speed.Probe()
    with probe:
        pass
    assert len(probe.samples) == speed.MIN_SAMPLES
    assert probe.spent_s == 0  # nothing to take out of the body's time
    assert speed.scale_now() > 0


def test_typical_time_ignores_the_outer_quarters():
    probe = speed.Probe()
    probe.samples = [1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 100.0]
    assert probe.typical_s() == 2.0
