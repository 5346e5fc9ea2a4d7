"""The k3 cycle model label by label: every product, composition and push of
basis labels and normal-form triple keys, against tests/golden/k3_tables.json.

Each entry records the call, its result (or the text of the
OutsideModelError it raises) and, for tri_mul, the identification flags it
sets.  The golden file records what the engine computed when it was written.
To rewrite it after an intended change of the model, run from the root of
the repository

    PYTHONPATH=src python tests/test_k3_tables.py
"""

import json
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

from beauville_lab.errors import OutsideModelError
from beauville_lab.k3 import (BV_LABELS, REL_LABELS, bv_mul, fourier_conjugate,
                              rel_compose, rel_mul)
from beauville_lab.k3_mult import (PAIRS, abs_pair_push, abs_tri_push, tri_dg,
                                   tri_mul, tri_pt, tri_sm)

GOLDEN = Path(__file__).resolve().parent / "golden" / "k3_tables.json"

FUNCTIONS = {f.__name__: f for f in (bv_mul, rel_mul, rel_compose, tri_mul,
                                      abs_pair_push, abs_tri_push, fourier_conjugate)}
TAKES_FLAGS = ("tri_mul",)


def _plain(x):
    """A key with its tuples as lists, as json writes it."""
    return [_plain(v) for v in x] if isinstance(x, (tuple, list)) else x


def _key(x):
    """A json key back to the tuple the engine uses."""
    return tuple(_key(v) for v in x) if isinstance(x, list) else x


def triple_keys():
    """The 28 normal-form keys of a triple cycle: 18 point monomials, nine
    decorated partial diagonals and the small diagonal."""
    keys = {key for slots in product(("one", "s", "c"), repeat=3) for fdeg in (0, 1)
            for key in tri_pt(*slots, fdeg=fdeg)}
    keys |= {key for pair in PAIRS for dec in ("one", "s", "c") for key in tri_dg(*pair, dec)}
    keys |= set(tri_sm())
    return sorted(keys, key=json.dumps)


def cases():
    """(function name, label or key arguments) of every recorded call."""
    bv_pairs = list(product(BV_LABELS, repeat=2))
    rel_pairs = list(product(REL_LABELS, repeat=2))
    tri = triple_keys()
    return ([("bv_mul", pair) for pair in bv_pairs]
            + [(name, pair) for name in ("rel_mul", "rel_compose") for pair in rel_pairs]
            + [("tri_mul", pair) for pair in product(tri, repeat=2)]
            + [("abs_pair_push", (lab,)) for lab in REL_LABELS]
            + [("abs_tri_push", (key,)) for key in tri]
            + [("fourier_conjugate", (lab,)) for lab in REL_LABELS])


def run(name, args):
    """The entry of one call, each argument taken as that basis element."""
    extra = (set(),) if name in TAKES_FLAGS else ()
    entry = {"fn": name, "args": _plain(args)}
    try:
        result = FUNCTIONS[name](*({a: Fraction(1)} for a in args), *extra)
    except OutsideModelError as err:
        entry["error"] = str(err)
    else:
        entry["result"] = sorted(([_plain(k), str(c)] for k, c in result.items()),
                                 key=json.dumps)
    if extra:
        entry["flags"] = sorted(extra[0])
    return entry


def test_triple_keys_are_the_28_normal_forms():
    keys = triple_keys()
    assert len(keys) == 28
    assert sum(key[0] == "pt" for key in keys) == 18


def test_k3_tables_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [(e["fn"], tuple(_key(a) for a in e["args"])) for e in golden] == cases()
    for entry in golden:
        assert run(entry["fn"], tuple(_key(a) for a in entry["args"])) == entry, entry["args"]
    assert sum("error" in e for e in golden if e["fn"] == "tri_mul") == 130


if __name__ == "__main__":
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(run(*case)) for case in cases())
                      + "\n]\n", encoding="utf-8")
    sys.exit(0)
