import pytest

from doctrina.errors import ClassViolation
from doctrina.report import MAX_WITNESSES, Clause


class CountingWitness:
    """A callable witness that counts how often it is formatted."""

    def __init__(self, text: str):
        self.text = text
        self.calls = 0

    def __call__(self) -> str:
        self.calls += 1
        return self.text


def refuse() -> bool:
    raise ClassViolation("refused")


class TestLazyWitness:
    def test_called_once_per_kept_failure_only(self):
        c = Clause("demo", "a law")
        verdicts = [True, False, True] + [False] * (MAX_WITNESSES + 3)
        witnesses = [CountingWitness(f"w{i}") for i in range(len(verdicts))]
        for ok, w in zip(verdicts, witnesses):
            assert c.check(ok, w) is ok
        kept = [w for ok, w in zip(verdicts, witnesses) if not ok][:MAX_WITNESSES]
        assert c.instances == len(verdicts)
        assert c.failures == verdicts.count(False)
        assert c.witnesses == [w.text for w in kept]
        # a pass never formats its witness, nor a failure past the slots
        assert [w.calls for w in witnesses] == [1 if w in kept else 0 for w in witnesses]

    @pytest.mark.parametrize("outcome, witnesses", [
        (lambda: True, []),
        (lambda: False, ["f"]),
        (refuse, ["f: refused"]),
    ], ids=["pass", "fail", "refusal"])
    def test_check_call_formats_only_a_failure(self, outcome, witnesses):
        c = Clause("demo", "a law")
        w = CountingWitness("f")
        c.check_call(outcome, w, ClassViolation)
        assert (c.instances, c.witnesses, w.calls) == (1, witnesses, len(witnesses))
