import pytest

from tilefold import stages
from tilefold.stages import stage

MODULE = __name__.rpartition(".")[2]  # stage names are `module.function`


class Clock:
    """A stand-in for the `time` module whose clock moves only when told."""

    def __init__(self):
        self.now = 0.0
        self.reads = 0

    def perf_counter(self):
        self.reads += 1
        return self.now


def test_a_hit_does_not_run_the_body_again():
    calls = []

    @stage
    def counted_stage():
        calls.append(1)
        return [1, 2]

    first = counted_stage()
    assert counted_stage() is first
    assert calls == [1]
    assert counted_stage.__name__ == "counted_stage" and counted_stage.__module__ == __name__


def test_an_exception_is_not_kept_and_names_its_stages():
    attempts = []

    @stage
    def flaky_inner():
        attempts.append(1)
        if len(attempts) == 1:
            raise RuntimeError("first attempt fails")
        return "ok"

    @stage
    def flaky_outer():
        return flaky_inner()

    with pytest.raises(RuntimeError) as info:
        stages.timed("section", flaky_outer)
    assert info.value.stage_path == (
        "section", f"{MODULE}.flaky_outer", f"{MODULE}.flaky_inner",
    )
    assert flaky_outer() == "ok"
    assert len(attempts) == 2


def test_self_time_excludes_nested_misses(monkeypatch):
    clock = Clock()
    monkeypatch.setattr(stages, "time", clock)

    @stage
    def slow_inner():
        clock.now += 5.0

    @stage
    def slow_outer():
        clock.now += 1.0
        slow_inner()
        clock.now += 2.0
        slow_inner()  # a hit: no time of its own

    stages.self_times.clear()
    stages.timed("section", slow_outer)
    assert stages.self_times == {
        "section": 0.0, f"{MODULE}.slow_outer": 3.0, f"{MODULE}.slow_inner": 5.0,
    }
    reads = clock.reads
    slow_outer()
    assert clock.reads == reads  # a hit reads no clock


def test_clear_forces_a_recompute():
    calls = []

    @stage
    def cleared_stage():
        calls.append(1)
        return len(calls)

    assert cleared_stage() == 1
    stages.clear(cleared_stage)
    assert cleared_stage() == 2 and cleared_stage() == 2
    with pytest.raises(AttributeError):
        stages.clear(len)  # not a stage
