#!/usr/bin/env bash
# Check that this checkout factors bit-identically to an earlier revision.
#
#     scripts/digest_against.sh REV
#
# Checks REV out into a temporary git worktree, copies this checkout's
# scripts/factor_digest.py into it (so both sides digest the same corpus),
# runs the script there and here, and diffs the two outputs.  The working
# tree is digested as it stands, uncommitted edits included.  Exits 0 when
# the outputs are identical, 1 when they differ (the diff is printed) and
# 2 on a usage or setup error.  The worktree is removed on exit.
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
    exit 1
fi
