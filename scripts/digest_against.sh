#!/usr/bin/env bash
# Check that this checkout factors and sweeps bit-identically to an earlier
# revision.
#
#     scripts/digest_against.sh REV
#
# Exports REV into a temporary directory, copies this checkout's
# scripts/factor_digest.py into it (so both sides digest the same corpus),
# runs the script there and here, and diffs the two outputs.  The working
# tree is digested as it stands, uncommitted edits included.  When they
# differ, the diff is followed by one line per digest column (pivot,
# factors, non-hat, full) counting the lines on which that column differs,
# so a change that should move only the hat ratio or the hatted norms shows
# the first three at 0, and one that should move norm_L or norm_U the first
# two.
# It then runs CLI `sweep` with its defaults, which every revision accepts,
# in both trees and diffs the two CSVs.  They carry the forward error,
# residual, cond, g1-g3 and backward error of the paper's adversarial sweep
# under both strategies, so a change to the diagnostics shows there even
# where the factor digest does not.
# Last it writes three system files with this checkout's testgen, a 24 x 24
# complex Toeplitz one (random_toeplitz(24, seed=4)), a 20 x 20 alpha = 3
# Cauchy-type one (random_cauchy_type(20, 3, seed=9)) and a 300 x 300
# Toeplitz one (random_toeplitz(300, seed=5)), each with b = A 1, runs CLI
# `factor`, `growth` and `solve` on each under `partial` and `row1col1` in
# both trees, and diffs each command's output, standard error and exit code.
# Order 300 is past HAT_RATIO_AUTO_LIMIT, so `growth` reports its NaN g2
# there, and it spans several blocks of the blocked substitution.
# Then it prints the public surface of both trees, every name in
# `structsolve.__all__` with the signature of each callable and the public
# members of each exported class (methods, properties and dataclass
# fields), and diffs the two.  A change there is reported but does not set
# the exit status: a deliberate removal is not a fault, yet a change to a
# name that perfbench imports shows before a benchmark run stops on it.
# Exits 0 when the digests, the sweep and the CLI runs are identical, 1
# when any differs and 2 on a usage or setup error.  The temporary
# directory is removed on exit.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
here=$(cd "$(dirname "$0")/.." && pwd)
rev=$(git -C "$here" rev-parse --verify --quiet "$1^{commit}") || {
    echo "$0: not a commit: $1" >&2
    exit 2
}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/tree"
git -C "$here" archive "$rev" | tar -x -C "$tmp/tree" || exit 2
mkdir -p "$tmp/tree/scripts"
cp "$here/scripts/factor_digest.py" "$tmp/tree/scripts/factor_digest.py"
python3 "$tmp/tree/scripts/factor_digest.py" > "$tmp/before.txt" || exit 2
python3 "$here/scripts/factor_digest.py" > "$tmp/after.txt" || exit 2

# CLI sweep with its defaults in tree $1, CSV to $2; exit 3 (a cell that
# failed) still writes every row
sweep() {
    PYTHONPATH="$1/src" python3 -m structsolve.cli sweep > "$2" || [ $? -eq 3 ]
}
sweep "$tmp/tree" "$tmp/sweep-before.csv" || exit 2
sweep "$here" "$tmp/sweep-after.csv" || exit 2

# the CLI's system files, every number an [re, im] pair
PYTHONPATH="$here/src" python3 - "$tmp" <<'EOF' || exit 2
import json
import sys

import numpy as np

import structsolve as ss


def pairs(a):
    a = np.asarray(a, dtype=complex)
    return [pairs(row) for row in a] if a.ndim > 1 else [[z.real, z.imag] for z in a.tolist()]


def toeplitz(coeffs):
    return {
        "toeplitz": {"n": coeffs.n, "a": pairs(coeffs.a)},
        "b": pairs(ss.dense_toeplitz(coeffs) @ np.ones(coeffs.n)),
    }


gen, nodes = ss.random_cauchy_type(20, 3, seed=9)
systems = {
    "toeplitz": toeplitz(ss.random_toeplitz(24, seed=4)),
    "toeplitz300": toeplitz(ss.random_toeplitz(300, seed=5)),
    "cauchy": {
        "cauchy": {"t": pairs(nodes.t), "s": pairs(nodes.s),
                   "phi": pairs(gen.phi), "psi": pairs(gen.psi)},
        "b": pairs(ss.materialize_cauchy(gen, nodes) @ np.ones(nodes.n)),
    },
}
for name, doc in systems.items():
    with open(f"{sys.argv[1]}/{name}.json", "w") as fh:
        json.dump(doc, fh)
EOF

# CLI factor, growth and solve on every system under both strategies in
# tree $1, each command's output, standard error and exit code into dir $2
cli() {
    mkdir "$2"
    local system strategy cmd out code
    for system in toeplitz toeplitz300 cauchy; do
        for strategy in partial row1col1; do
            for cmd in factor growth solve; do
                out="$2/$system-$strategy-$cmd"
                code=0
                PYTHONPATH="$1/src" python3 -m structsolve.cli "$cmd" "$tmp/$system.json" \
                    --strategy "$strategy" > "$out.json" 2> "$out.err" || code=$?
                echo "$code" > "$out.exit"
            done
        done
    done
}
cli "$tmp/tree" "$tmp/cli-before"
cli "$here" "$tmp/cli-after"

# the package's public surface, one line per exported name and per public
# member of an exported class
cat > "$tmp/surface.py" <<'EOF'
import dataclasses
import inspect

import structsolve as ss


def signature(obj):
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(?)"


for name in ss.__all__:
    obj = getattr(ss, name)
    if not inspect.isclass(obj):
        print(f"{name}{signature(obj)}" if callable(obj) else f"{name} = {obj!r}")
        continue
    print(f"class {name}{signature(obj)}")
    fields = {f.name for f in dataclasses.fields(obj)} if dataclasses.is_dataclass(obj) else set()
    for field in sorted(fields):
        print(f"    {name}.{field}: field")
    # members defined in the package, inherited ones included; numpy's and
    # the standard library's are not the package's surface
    members = {}
    for cls in reversed(obj.__mro__):
        if cls.__module__.startswith("structsolve"):
            members.update(vars(cls))
    for member, value in sorted(members.items()):
        if member.startswith("_") or member in fields:
            continue
        if isinstance(value, property):
            print(f"    {name}.{member}: property")
        elif isinstance(value, (classmethod, staticmethod)):
            print(f"    {name}.{member}{signature(getattr(obj, member))}: {type(value).__name__}")
        elif callable(value):
            print(f"    {name}.{member}{signature(value)}: method")
        else:
            print(f"    {name}.{member} = {value!r}")
EOF
PYTHONPATH="$tmp/tree/src" python3 "$tmp/surface.py" > "$tmp/surface-before.txt" || exit 2
PYTHONPATH="$here/src" python3 "$tmp/surface.py" > "$tmp/surface-after.txt" || exit 2

status=0
if diff "$tmp/before.txt" "$tmp/after.txt"; then
    echo "identical: $(wc -l < "$tmp/after.txt") lines at ${rev:0:12} and in $here"
else
    # a line ends in four 64-digit digests, or in an error message that
    # stands for all four
    python3 - "$tmp/before.txt" "$tmp/after.txt" <<'EOF'
import re
import sys

def columns(line):
    words = line.split()
    if len(words) >= 4 and all(re.fullmatch("[0-9a-f]{64}", w) for w in words[-4:]):
        return words[-4:]
    return [line] * 4

before, after = (open(path).read().splitlines() for path in sys.argv[1:3])
if len(before) != len(after):
    sys.exit(f"{len(before)} lines before, {len(after)} after: columns not compared")
pairs = [(columns(a), columns(b)) for a, b in zip(before, after)]
for i, name in enumerate(("pivot", "factors", "non-hat", "full")):
    moved = sum(a[i] != b[i] for a, b in pairs)
    print(f"{name} digest differs on {moved} of {len(pairs)} lines")
EOF
    status=1
fi
if diff "$tmp/sweep-before.csv" "$tmp/sweep-after.csv"; then
    echo "sweep identical: $(($(wc -l < "$tmp/sweep-after.csv") - 1)) records"
else
    echo "sweep CSV differs"
    status=1
fi
if diff -r "$tmp/cli-before" "$tmp/cli-after"; then
    echo "CLI identical: $(ls "$tmp/cli-after" | grep -c '[.]exit$') runs"
else
    echo "CLI output differs"
    status=1
fi
if diff "$tmp/surface-before.txt" "$tmp/surface-after.txt"; then
    echo "public surface identical: $(grep -c '^[^ ]' "$tmp/surface-after.txt") names"
else
    echo "public surface differs (reported only: the exit status ignores it)"
fi
exit $status
