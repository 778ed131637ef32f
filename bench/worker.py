"""One pass of a benchmark workload, in a fresh interpreter.

Usage: python3 bench/worker.py WORKLOAD SEED WORKDIR TRACED

Set-up (imports, input generation, file writing) is timed from the first
line of this file. Each operation is then timed alone, in order, by one
closed-loop client, right after a short speed probe. Answers are read back
and certificates re-checked only after the last operation, outside every
timed region. Prints one JSON line.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def speed_probe() -> float:
    """Seconds taken by a fixed sample of the library's kind of work.

    It tests all 52 partitions of five points for parameter-free block
    masses in exact arithmetic. Timed before each operation, it tracks how
    fast the host runs such code just then.
    """
    from fractions import Fraction

    start = time.perf_counter()
    rows = tuple(tuple(Fraction(k, 12) for k in row) for row in ((2, 4, 1, 3, 2), (1, 2, 3, 4, 2)))
    labels = [0] * 5
    found = []

    def grow(i: int, top: int) -> None:
        if i == 5:
            groups: dict[int, list[int]] = {}
            for x, g in enumerate(labels):
                groups.setdefault(g, []).append(x)
            blocks = [frozenset(b) for b in groups.values()]
            if all(len({sum(r[x] for x in b) for r in rows}) == 1 for b in blocks):
                found.append(blocks)
            return
        for value in range(top + 2):
            labels[i] = value
            grow(i + 1, max(top, value))

    grow(1, 0)
    json.dumps([[sorted(b) for b in p] for p in found])
    return time.perf_counter() - start


def main(argv: list[str]) -> None:
    workload, seed, workdir, traced = argv[0], int(argv[1]), Path(argv[2]), argv[3] == "1"
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import lp_lab

    if not Path(lp_lab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"lp_lab imported from {lp_lab.__file__}, not {src}")
    import gen
    import workloads

    inputs = gen.build(workload, seed)
    runner = workloads.Runner(workload, inputs, workdir)
    setup_s = time.perf_counter() - START

    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    clock = time.perf_counter
    raws, latencies, probes, errors = [], [], [], []
    for index in range(len(inputs["ops"])):
        probes.append(speed_probe())
        start = clock()
        try:
            raws.append(runner.execute(index))
            errors.append(None)
        except Exception as exc:  # an operation that raises is a failed operation
            raws.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        latencies.append(clock() - start)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = tracer.metrics() if tracer else None

    answers = []
    for index, raw in enumerate(raws):
        answer = None
        if errors[index] is None:
            try:
                answer = runner.answer(index, raw)
            except Exception as exc:  # unreadable output fails the operation
                errors[index] = f"{type(exc).__name__}: {exc}"
        answers.append(answer)
    print(json.dumps({
        "digest": gen.digest(inputs),
        "setup_s": setup_s,
        "latencies": latencies,
        "probes": probes,
        "answers": answers,
        "errors": errors,
        "peak_rss_kb": peak_rss_kb,
        "layers": layers,
        "missing": tracer.missing if tracer else [],
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
