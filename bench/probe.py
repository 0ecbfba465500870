"""Fresh-process probes: the costs a hawkpair process pays once.

    python bench/probe.py setup  '<json>'   import hawkpair, then evaluate one
                                            point per cutoff band
    python bench/probe.py layers '<json>'   import hawkpair.cli, then time the
                                            first joint series at N > 6000

Run with src/ on PYTHONPATH. Prints one JSON object of timings.
"""

import json
import sys
from time import perf_counter


def main() -> int:
    mode, spec = sys.argv[1], json.loads(sys.argv[2])
    if mode == "setup":
        start = perf_counter()
        import hawkpair

        for r_a, r_b, n_max, methods in spec["bands"]:
            cutoff = (
                hawkpair.SeriesConfig(n_max=n_max)
                if n_max is not None
                else hawkpair.SeriesConfig(tail_tol=spec["tail_tol"])
            )
            hawkpair.run_point(r_a=r_a, r_b=r_b, cutoff=cutoff, methods=tuple(methods))
        print(json.dumps({"setup_s": perf_counter() - start}))
        return 0
    if mode == "layers":
        start = perf_counter()
        import hawkpair.cli  # noqa: F401

        import_s = perf_counter() - start
        first_large = 0.0
        if spec["large_point"] is not None:
            from hawkpair import SeriesConfig, make_squeeze, s_ab_closed

            r_a, r_b = spec["large_point"]
            sq_a, sq_b = make_squeeze(r_a), make_squeeze(r_b)
            cutoff = SeriesConfig(tail_tol=spec["tail_tol"])
            start = perf_counter()
            s_ab_closed(sq_a, sq_b, cutoff)
            first_large = perf_counter() - start
        print(json.dumps({"import_s": import_s, "first_large_n_s": first_large}))
        return 0
    print(f"unknown probe {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
