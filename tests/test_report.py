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


class TestCountedCheck:
    def test_passing_instances_add_their_count_and_no_witness(self):
        c = Clause("demo", "a law")
        w = CountingWitness("w")
        assert c.check(True, w, count=7) is True
        c.check(True, count=0)
        assert (c.instances, c.failures, c.witnesses, w.calls) == (7, 0, [], 0)

    def test_failures_keep_the_witness_slot_rule(self):
        # bulk passes around failures checked one by one: the counts add
        # up and the kept witnesses are the first failures, in order
        c = Clause("demo", "a law")
        c.check(True, count=3)
        witnesses = [CountingWitness(f"w{i}") for i in range(MAX_WITNESSES + 2)]
        for w in witnesses:
            assert c.check(False, w) is False
        c.check(True, count=4)
        assert (c.instances, c.failures) == (3 + len(witnesses) + 4, len(witnesses))
        assert c.witnesses == [w.text for w in witnesses[:MAX_WITNESSES]]
        assert [w.calls for w in witnesses] == [1] * MAX_WITNESSES + [0, 0]

    def test_counted_failure_takes_one_slot(self):
        c = Clause("demo", "a law")
        w = CountingWitness("w")
        c.check(False, w, count=3)
        assert (c.instances, c.failures, c.witnesses, w.calls) == (3, 3, ["w"], 1)
