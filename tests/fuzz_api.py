"""Run the property of tests/test_api_fuzz.py for a longer, randomized
search: every public callable and method, called with good arguments in
which up to two are swapped for bad values, returns or raises a
CcpError, and a Polyhedron it returns verifies.

    python3 tests/fuzz_api.py                  # 5,000 examples
    python3 tests/fuzz_api.py --examples 50000 --seed 7

RuntimeWarnings are raised as errors, as under pytest.  pytest does not
collect this file; tier-1 runs the property derandomized.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from hypothesis import given, seed, settings, strategies as st  # noqa: E402

from test_api_fuzz import CALLS, _folder, check_entry  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--examples", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    warnings.simplefilter("error", RuntimeWarning)
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        _folder(tmp)

        @settings(max_examples=args.examples, deadline=None, database=None)
        @given(st.data())
        def search(data):
            name = data.draw(st.sampled_from(sorted(CALLS)), label="entry")
            check_entry(data, tmp, name)

        if args.seed is not None:
            search = seed(args.seed)(search)
        search()
    print(f"{args.examples} examples: every call returned or raised a "
          "CcpError")
    return 0


if __name__ == "__main__":
    sys.exit(main())
