"""One measured ``occert`` process, launched by ``run.py``.

    python3 perfbench/child.py SIDECAR MODE [-- CLI ARGS...]

MODE is ``reference`` (a fixed task that does not involve occert: import
the third-party modules occert uses, then run small numpy kernels like
occert's; a yardstick for the host's current speed), ``setup`` (import
``occert.cli`` and exit), ``plain`` (run ``occert.cli.main`` on the CLI
arguments) or ``traced`` (the same, with the layer spans of
``tracing.py`` recorded).  The process writes a JSON sidecar with
``time.monotonic()`` stamps, which on Linux share one clock with the
launching process, so the parent can subtract its launch time.
"""

import json
import sys
import time


def main() -> int:
    sidecar, mode = sys.argv[1], sys.argv[2]
    cli_args = sys.argv[4:] if len(sys.argv) > 3 else []
    if mode == "reference":
        _reference_task()
        return 0

    import occert.cli

    setup_end = time.monotonic()
    info = {"setup_end": setup_end}
    if mode == "setup":
        import numpy

        info["env"] = {"backend": occert.BACKEND, "numpy": numpy.__version__,
                       "openblas": _openblas_version(numpy)}
        _dump(sidecar, info)
        return 0

    tracer = None
    if mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    code = 1
    main_start = time.perf_counter()
    try:
        code = occert.cli.main(cli_args)
    except SystemExit as exc:           # emit_report exits on I/O failure
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        info["main_s"] = time.perf_counter() - main_start
        info["exit_code"] = code
        if tracer is not None:
            info["trace"] = tracer.dump(main_start)
        _dump(sidecar, info)
    return code


def _reference_task() -> None:
    import jsonschema  # noqa: F401
    import numpy as np

    rng = np.random.default_rng(0)
    R = rng.normal(size=(6, 6, 6, 6))
    J = rng.normal(size=(6, 6))
    S = J + J.T
    for _ in range(600):
        M = np.einsum("ikbj,bk->ij", np.tensordot(R, J, axes=([2], [0])), J)
        np.linalg.eigvalsh(0.5 * (M + M.T))
        np.einsum("ijkl,ia,jb->abkl", R, S, S)


def _openblas_version(numpy) -> str:
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        return str(deps["blas"].get("version", "unknown"))
    except (TypeError, KeyError):       # older numpy: no dict mode
        return "unknown"


def _dump(path: str, info: dict) -> None:
    with open(path, "w") as fh:
        json.dump(info, fh)


if __name__ == "__main__":
    sys.exit(main())
