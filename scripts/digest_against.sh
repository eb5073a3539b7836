#!/usr/bin/env bash
# Check that this checkout factors bit-identically to an earlier revision.
#
#     scripts/digest_against.sh REV
#
# Checks REV out into a temporary git worktree, copies this checkout's
# scripts/factor_digest.py into it (so both sides digest the same corpus),
# runs the script there and here, and diffs the two outputs.  The working
# tree is digested as it stands, uncommitted edits included.  When they
# differ, the diff is followed by one line per digest column (pivot,
# factors, non-hat, full) counting the lines on which that column differs,
# so a change that should move only the hat ratio shows the first three at
# 0, and one that should move only the lane-summed norms the first two.
# Exits 0 when the outputs are identical, 1 when they differ and 2 on a
# usage or setup error.  The worktree is removed on exit.
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
cleanup() {
    git -C "$here" worktree remove --force "$tmp/tree" 2>/dev/null || true
    git -C "$here" worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT

git -C "$here" worktree add --quiet --detach "$tmp/tree" "$rev" || exit 2
mkdir -p "$tmp/tree/scripts"
cp "$here/scripts/factor_digest.py" "$tmp/tree/scripts/factor_digest.py"
python3 "$tmp/tree/scripts/factor_digest.py" > "$tmp/before.txt" || exit 2
python3 "$here/scripts/factor_digest.py" > "$tmp/after.txt" || exit 2
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
    exit 1
fi
