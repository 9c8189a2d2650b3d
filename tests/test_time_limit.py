import signal
import threading

import pytest

import conftest


@pytest.mark.skipif(not hasattr(signal, "setitimer"),
                    reason="no real-time interval timer on this platform")
def test_each_test_runs_under_the_alarm():
    # conftest's autouse fixture arms the alarm around every test in the
    # main thread, so a stuck test fails instead of hanging the run
    assert threading.current_thread() is threading.main_thread()
    left, _interval = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < left <= conftest.TEST_TIME_LIMIT
    assert signal.getsignal(signal.SIGALRM) is conftest._time_limit_exceeded

