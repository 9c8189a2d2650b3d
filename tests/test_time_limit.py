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



def test_the_alarm_fails_the_test_without_a_traceback():
    # pytest reports the failure and goes on with the next test
    with pytest.raises(pytest.fail.Exception,
                       match="^test ran past its time limit of %d s$"
                       % conftest.TEST_TIME_LIMIT) as failed:
        conftest._time_limit_exceeded(signal.SIGALRM, None)
    assert failed.value.pytrace is False
