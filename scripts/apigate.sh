#!/usr/bin/env sh
# apigate.sh — the engine API surface gate.
#
# The engine answers queries through Query/QueryBatch and nothing else.
# This gate fails CI when any exported Engine method in the root package
# is outside the allowlist below, so the surface cannot silently sprawl
# back into one-method-per-capability. There is no escape hatch: a new
# method means editing the allowlist, in review.
#
# Run from the repository root: ./scripts/apigate.sh
set -eu

cd "$(dirname "$0")/.."

# Besides Query/QueryBatch: stats, SPARQL standalone,
# the mutation family Apply/Compact with its KG/Epoch/Health observers,
# the persistence lifecycle Close/Durability, the replication feed
# ApplyReplicated/ReplicationRead/SegmentFile/EpochPublished, and the
# fail-stop observer Poisoned.
ALLOW='^(Query|QueryBatch|CacheStats|IndexMaintenance|Index|Select|SelectAll|Apply|Compact|KG|Epoch|Health|Close|Durability|ApplyReplicated|ReplicationRead|SegmentFile|EpochPublished|Poisoned)$'

status=0
for f in *.go; do
    case "$f" in
    *_test.go) continue ;;
    esac
    out=$(awk -v allow="$ALLOW" '
        /^func \([A-Za-z_][A-Za-z0-9_]* \*?Engine\) [A-Z]/ {
            name = $0
            sub(/^func \([A-Za-z_][A-Za-z0-9_]* \*?Engine\) /, "", name)
            sub(/[(\[].*/, "", name)
            if (name !~ allow) {
                printf "%s: exported Engine method %s is not in the allowlist\n", FILENAME, name
            }
        }
    ' "$f")
    if [ -n "$out" ]; then
        echo "$out"
        status=1
    fi
done

if [ "$status" -ne 0 ]; then
    echo "apigate: engine queries go through Query/QueryBatch; extend the allowlist only for non-query methods" >&2
fi
exit "$status"
