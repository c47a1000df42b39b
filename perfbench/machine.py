"""Record of the machine a benchmark result was measured on."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import time


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class CorePicker:
    """Keeps this process on the core that currently runs fastest.

    On a shared VM each core is slowed by its own neighbours, for phases of
    seconds to over a minute, mostly not at the same time as the others:
    timed in turn on two cores, a loop's times correlated at about 0.1.
    ``pick`` times a short loop on every allowed core and pins the process
    to the fastest; children inherit the pin. ``maybe_pick`` does so again
    once ``every_s`` has passed since the last pick. The loops run outside
    every timed section.
    """

    LOOPS = 100_000

    def __init__(self, cores=None, every_s: float = 1.0):
        self.cores = sorted(os.sched_getaffinity(0) if cores is None else cores)
        self.every_s = every_s
        self.last = float("-inf")
        self.picks: dict[int, int] = {}

    def _loop_s(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(self.LOOPS):
            acc += i * i
        return time.perf_counter() - t0

    def pick(self) -> None:
        if len(self.cores) > 1:
            times = {}
            for core in self.cores:
                os.sched_setaffinity(0, {core})
                self._loop_s()  # runs on the new core from here on
                times[core] = self._loop_s()
            core = min(times, key=times.get)
            os.sched_setaffinity(0, {core})
            self.picks[core] = self.picks.get(core, 0) + 1
        self.last = time.perf_counter()

    def maybe_pick(self) -> None:
        if time.perf_counter() - self.last >= self.every_s:
            self.pick()

    def release(self) -> None:
        os.sched_setaffinity(0, self.cores)


def blas() -> dict:
    """BLAS vendor, version and the thread count the loaded library uses."""
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"vendor": info.get("name"), "version": info.get("version"), "threads": None}
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out["threads"] = fn()
                return out
    return out


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_bytes(level: int) -> int | None:
    """Size of the unified cache at ``level`` seen by CPU 0, from sysfs."""
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level"), encoding="utf-8") as fh:
                if int(fh.read()) != level:
                    continue
            with open(os.path.join(index, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
        except (OSError, ValueError):
            continue
        if size[-1:] in units:
            return int(size[:-1]) * units[size[-1]]
        return int(size)
    return None


def record(seed: int, blas_info: dict) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "blas": blas_info,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "seed": seed,
    }
