"""Error rows carry a bounded, worker-stable traceback tail."""

from repro.engine.cell import (
    TRACEBACK_TAIL_CHARS,
    TRACEBACK_TAIL_LINES,
    describe_error,
)


def raise_nested(depth):
    if depth == 0:
        raise ValueError("innermost failure")
    raise_nested(depth - 1)


def capture(callable_):
    try:
        callable_()
    except Exception as exc:  # noqa: BLE001 - the exception is the fixture
        return exc
    raise AssertionError("callable did not raise")


class TestDescribeError:
    def test_head_line_leads_the_description(self):
        exc = capture(lambda: raise_nested(1))
        text = describe_error(exc)
        assert text.splitlines()[0] == "ValueError: innermost failure"

    def test_includes_traceback_frames(self):
        exc = capture(lambda: raise_nested(1))
        text = describe_error(exc)
        assert "Traceback" in text or "raise_nested" in text
        assert "innermost failure" in text.splitlines()[-1]

    def test_exception_without_traceback_stays_head_only(self):
        exc = ValueError("bare")
        assert describe_error(exc) == "ValueError: bare"

    def test_deep_stacks_are_truncated_to_the_tail(self):
        exc = capture(lambda: raise_nested(50))
        text = describe_error(exc)
        head, _, tail = text.partition("\n")
        lines = tail.split("\n")
        # Bounded: the marker line plus at most TRACEBACK_TAIL_LINES.
        assert lines[0] == "  ..."
        assert len(lines) == TRACEBACK_TAIL_LINES + 1
        assert len(tail) <= TRACEBACK_TAIL_CHARS + 3
        # The tail keeps the innermost (most diagnostic) frames.
        assert "innermost failure" in lines[-1]

    def test_description_is_stable_across_call_sites(self):
        # The same failure raised through different outer stacks (inline
        # runner vs pooled chunk executor) must describe identically —
        # __traceback__ starts below the catching frame, not the dispatcher.
        def boom():
            raise_nested(3)

        def indirect():
            return capture(boom)

        first = describe_error(capture(boom))
        second = describe_error(indirect())
        assert first == second
