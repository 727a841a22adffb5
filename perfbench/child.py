"""One benchmark iteration in a fresh interpreter.

    python3 perfbench/child.py <spec.json>

Run from the iteration's own directory.  The spec names the workload kind,
the source tree to import canomap from and the input file.  Setup is
interpreter start, `import canomap` and loading the input; it ends at
`t_ready`, read from the system-wide monotonic clock so that the parent can
subtract its spawn time.  The timed body starts after setup and ends when
the artifacts in ./out are written.  A fixed calibration kernel is timed
right after setup and right after the body, so that the parent can express
both times at a reference host speed.  The child writes ./result.json and
decides nothing: the parent checks the artifacts.
"""
import json
import os
import resource
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class _Point:
    z: object
    t: float

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))


def kernel_s():
    """Best of two timings of a fixed kernel shaped like canomap's inner
    loops: a validated frozen dataclass, small NumPy updates and plain
    Python arithmetic, in about equal shares of time.  It does not use
    canomap, so no change to the program moves it; only the host's speed
    does."""
    import numpy as np
    best = float("inf")
    for _ in range(2):
        z = np.zeros(2)
        t0 = time.perf_counter()
        for i in range(3000):
            z = z + 1e-3 * _Point(z, i).z
            if not np.all(np.isfinite(z)):
                break
            acc = 0
            for j in range(64):
                acc += j * j
        best = min(best, time.perf_counter() - t0)
    return best


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import canomap
    from canomap import cli
    from canomap.phasecore import DomainError
    if not os.path.abspath(canomap.__file__).startswith(src + os.sep):
        raise SystemExit(f"canomap imported from {canomap.__file__}, not from {src}")
    if spec["kind"] == "cli":
        inputs = cli.load_config(spec["input"])
    else:
        import session
        with open(spec["input"], encoding="utf-8") as fh:
            inputs = json.load(fh)
    result = {"t_ready": time.monotonic()}
    result["k_before"] = kernel_s()

    def body():
        if spec["kind"] == "session":
            os.makedirs("out", exist_ok=True)
            print(f"VERDICT={session.run(inputs, os.path.join('out', 'session.json'))}")
            return 0
        try:
            return cli.run(inputs)
        except cli.ConfigError:
            return 2
        except DomainError:
            return 3

    if not spec["setup_only"]:
        tracer = None
        if spec["trace"]:
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        t0 = time.perf_counter()
        if tracer is None:
            result["exit_code"] = body()
        else:
            with tracer.span("body"):
                result["exit_code"] = body()
        result["wall_s"] = time.perf_counter() - t0
        result["k_after"] = kernel_s()
        if tracer is not None:
            layers = tracing.layer_metrics(tracer)
            layers["cli.artifact_bytes"] = sum(
                os.path.getsize(os.path.join("out", name)) for name in os.listdir("out")
            ) if spec["kind"] == "cli" else 0
            result["layers"] = layers
            result["spans"] = tracer.dump_spans()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
