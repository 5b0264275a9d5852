#!/usr/bin/env bash
# Rerun both experiment scripts in a temporary copy of the checkout's src/ and
# experiments/, then compare every git-tracked file under runs/ with the
# rerun's byte for byte. Prints each file that differs or is missing and
# exits 1 if there is any; exits 0 when every tracked runs/ file reproduces.
# Each experiment's stdout.txt is one of them, so a printed figure (decoder
# accuracy, compressor MSE, flow loss, straightness, the eval lines) that
# moves is caught even when no checkpoint does.
#
#   bash experiments/check_runs.sh
set -euo pipefail
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

git -C "$ROOT" ls-files -z src experiments | tar -C "$ROOT" --null -T - -cf - | tar -C "$WORK" -xf -
export PYTHONPATH="$WORK/src${PYTHONPATH:+:$PYTHONPATH}"
for script in single_chain multichain; do
    bash "$WORK/experiments/$script.sh" > "$WORK/$script.log" 2>&1 || {
        cat "$WORK/$script.log" >&2
        echo "experiments/$script.sh failed" >&2
        exit 1
    }
done

status=0
count=0
while IFS= read -r -d '' path; do
    count=$((count + 1))
    if ! cmp -s "$ROOT/$path" "$WORK/$path"; then
        echo "differs: $path"
        status=1
    fi
done < <(git -C "$ROOT" ls-files -z runs)
if [ "$status" -eq 0 ]; then
    echo "all $count tracked runs/ files reproduce byte for byte"
fi
exit "$status"
