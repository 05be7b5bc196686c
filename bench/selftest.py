"""Fast self-test of the benchmark harness (about ten seconds).

    python3 bench/selftest.py

Checks that the same seed gives the same op lists and a new seed new ones,
that a tiny real session passes every output check, that a deliberately
wrong expected verdict, region endpoint or closed-form value is caught as a
failure, and that the span-coverage check fails loudly on a span that
records no calls.  Exits non-zero on the first problem.
"""

import copy
import random
import sys
from fractions import Fraction

from run import SRC, BenchError, check_sessions, per_layer, run_session, work_dir

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402
from oracle import check  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"selftest FAILED: {message}")


def inputs(ops: list) -> list:
    return [(op["call"], op.get("argv"), op.get("args")) for op in ops]


def test_seeding() -> None:
    for name in workloads.GENERATORS:
        first = inputs(workloads.generate(name, 7))
        expect(first == inputs(workloads.generate(name, 7)),
               f"{name}: the same seed gave different inputs")
        expect(first != inputs(workloads.generate(name, 8)),
               f"{name}: a new seed gave the same inputs")


def tiny_ops() -> list:
    rng = random.Random(3)
    decide = [op for op in workloads.decide_ops(rng) if op["m"] <= 2][:4]
    regions = [workloads._region_op(0, 2, 5, 1), workloads._region_op(1, 5, 20, 0)]
    return decide + regions + workloads.closed_form_ops(rng)[:2]


def test_session_and_tampering(work) -> None:
    ops = tiny_ops()
    report = run_session(ops, True, work)
    attempted, failed, reasons = check_sessions(ops, [report])
    expect(failed == 0 and attempted == len(ops), f"tiny session failed: {reasons}")
    outs = {out["id"]: out for out in report["ops"]}

    def caught(op, how) -> None:
        bad = copy.deepcopy(op)
        how(bad["expect"])
        expect(check(bad, outs[op["id"]]) is not None, f"{op['id']}: tampered "
               "expectation was not caught")

    flip = {"ESA": "NotESA", "NotESA": "ESA"}
    caught(ops[0], lambda e: e.update(verdict=flip[e["verdict"]]))
    shifted = {"type": "rational", "value": str(Fraction(21) + Fraction(1, 10 ** 40))}
    caught(ops[4], lambda e: e["pieces"][0].__setitem__(0, shifted))
    caught(ops[5], lambda e: e["pieces"].reverse())       # island: beta <-> gamma ends
    caught(ops[5], lambda e: e["pieces"][0].__setitem__(1, e["pieces"][1][0]))
    bad = copy.deepcopy(ops[6])
    bad["expect"] = str(Fraction(bad["expect"]) + 1)
    expect(check(bad, outs[bad["id"]]) is not None, "wrong closed-form value not caught")

    per_layer([report], [report], ("cli.run", "esa.esa_decide_radial"))
    try:
        per_layer([report], [report], ("roots.label_trajectories",))
    except BenchError:
        pass
    else:
        expect(False, "a span with no calls passed the coverage check")


def main() -> None:
    test_seeding()
    with work_dir("selftest") as work:
        test_session_and_tampering(work)
    print("selftest: ok")


if __name__ == "__main__":
    main()
