"""Runs a list of masksep CLI commands in this (fresh) process.

Usage: python3 worker.py SPEC.json

SPEC holds ``src`` (the package source directory), ``commands`` (a list of
{"name", "argv"}), ``trace`` (bool), ``probe`` (null, or [module, function
or Class.method] to time every call of), ``spans`` (where a traced run
writes its spans) and ``result`` (where this process writes its timings as
JSON).

Each command runs through ``masksep.cli.main``; its wall and CPU time are
recorded, and so are those of every probed call. CPU time is the whole
process's, all threads. Right before each probed call the worker also times
``reference()``, a fixed computation that uses no masksep code, so that the
call's time can be read against the host's speed at that moment. Peak RSS
is read right after the last command, before anything else.
"""

from __future__ import annotations

import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy
import scipy

from tracer import (Tracer, calls_by_name, covered_seconds, layer_metrics,
                    wrapper_seconds_per_call)


_RNG = numpy.random.default_rng(0)
_REF_A = _RNG.standard_normal((256, 128)).astype(numpy.float32)
_REF_B = _RNG.standard_normal((128, 128)).astype(numpy.float32)
_REF_X = _RNG.random(8192) + 0.5


def reference() -> float:
    """About half a millisecond of the kinds of work masksep does: float32
    GEMM, transcendental functions over arrays, and interpreted loops."""
    total = 0.0
    for _ in range(4):
        total += float(numpy.tanh(_REF_A @ _REF_B)[0, 0])
    for _ in range(2):
        total += float((numpy.log(_REF_X) * numpy.exp(-_REF_X))[0])
    count = 0
    for i in range(3000):
        count += i & 7
    return total + count


class Probe:
    """Times every call of ``owner.name``; owner is a module or a class.
    ``samples`` holds (wall seconds, CPU seconds, wall seconds of the
    ``reference()`` run just before the call) per call."""

    def __init__(self, owner, name: str):
        self.owner, self.name = owner, name
        self.fn = getattr(owner, name)
        self.samples: list[tuple[float, float, float]] = []
        fn, samples = self.fn, self.samples
        clock, cpu = time.perf_counter, time.process_time

        def timed(*args, **kwargs):
            ref_start = clock()
            reference()
            start, cpu_start = clock(), cpu()
            result = fn(*args, **kwargs)
            samples.append((clock() - start, cpu() - cpu_start,
                            start - ref_start))
            return result

        setattr(owner, name, timed)

    def close(self) -> None:
        setattr(self.owner, self.name, self.fn)


def _blas_threads():
    """(library name, thread count) of the BLAS numpy was built against."""
    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    threads = None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
    return f"{info.get('name')} {info.get('version')}", threads


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    from masksep import cli

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()

    probe = None
    if spec.get("probe"):
        mod_name, attr = spec["probe"]
        owner = importlib.import_module(f"masksep.{mod_name}")
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        probe = Probe(owner, name)

    commands = []
    before = resource.getrusage(resource.RUSAGE_SELF)
    for cmd in spec["commands"]:
        if tracer is not None:
            tracer.run_id = cmd["name"]
        if probe is not None:
            n_before = len(probe.samples)
        start, cpu_start = time.perf_counter(), time.process_time()
        code = cli.main(cmd["argv"])
        end, cpu_end = time.perf_counter(), time.process_time()
        steps = probe.samples[n_before:] if probe is not None else []
        commands.append({
            "name": cmd["name"], "exit": code, "start": start, "end": end,
            "cpu_s": cpu_end - cpu_start,
            "steps_s": [x[0] for x in steps],
            "steps_cpu_s": [x[1] for x in steps],
            "steps_ref_s": [x[2] for x in steps],
        })
    after = resource.getrusage(resource.RUSAGE_SELF)
    if probe is not None:
        probe.close()

    result = {
        "commands": commands,
        "cpu_s": (after.ru_utime - before.ru_utime)
        + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer.spans, tracer.counters)
        result["missing_targets"] = tracer.missing
        result["calls"] = {c["name"]: calls_by_name(tracer.spans, c["name"])
                           for c in commands}
        for c in commands:
            c["covered_s"] = covered_seconds(tracer.spans, c["start"], c["end"])
        tracer.write_spans(spec["spans"])
        result["wrapper_s_per_call"] = wrapper_seconds_per_call()

    blas, threads = _blas_threads()
    result["env"] = {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "blas": blas, "blas_threads": threads}
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
