"""One cold ``lwsurf`` process of the cli workload, with the speed probe.

Usage: ``python3 cli_child.py STATE.json MODE ARG...``.  MODE ``run`` runs
``lwsurf ARG...``, ``trace`` does so with the benchmark's tracer
installed, and ``import`` only imports ``lwsurf.cli`` (the set-up
measurement).  The probe's samples and the time they cost, and in
``trace`` mode the tracer's state, go to STATE.json, also when the
command raises.
"""

import json
import sys

from speed import Probe


def main() -> int:
    state_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    probe, tracer = Probe(), None
    try:
        with probe:
            if mode == "trace":
                from tracer import Tracer

                tracer = Tracer()
                tracer.install()
            import lwsurf.cli

            return 0 if mode == "import" else lwsurf.cli.main(argv)
    finally:
        state = {"samples": probe.samples, "spent": probe.spent}
        if tracer is not None:
            state["trace"] = tracer.state()
        with open(state_path, "w", encoding="utf-8") as fh:
            json.dump(state, fh)


if __name__ == "__main__":
    sys.exit(main())
