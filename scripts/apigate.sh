#!/usr/bin/env sh
# apigate.sh — the engine API surface gate.
#
# The engine answers queries through Query/QueryBatch and nothing else.
# This gate fails CI when any exported Engine method in the root package
# is outside the allowlist below, so the surface cannot silently sprawl
# back into one-method-per-capability. It also pins the field names of
# the two configuration structs, Options (lscr.go) and IndexParams
# (internal/lscr/localindex.go), so a new knob cannot slip in either,
# and of the index-maintenance reports, MaintStats (lscr.go) and
# MaintBatch (internal/lscr/maintain.go), so a maintenance counter
# cannot grow back unreviewed.
# There is no escape hatch: a new method or field means editing an
# allowlist, in review.
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

# pin_fields FILE STRUCT ALLOWED... fails unless the named fields of
# `type STRUCT struct` in FILE are exactly ALLOWED, in any order.
pin_fields() {
    file=$1 struct=$2
    shift 2
    got=$(awk -v s="$struct" '
        $0 ~ "^type " s " struct \\{" { in_s = 1; next }
        in_s && /^}/ { exit }
        in_s && match($0, /^\t[A-Z][A-Za-z0-9_]*(,[ \t]*[A-Za-z_][A-Za-z0-9_]*)*/) {
            n = split(substr($0, 2, RLENGTH - 1), names, /,[ \t]*/)
            for (i = 1; i <= n; i++) print names[i]
        }
    ' "$file" | sort)
    want=$(printf '%s\n' "$@" | sort)
    if [ -z "$got" ]; then
        echo "$file: type $struct struct not found" >&2
        status=1
    elif [ "$got" != "$want" ]; then
        echo "$file: $struct fields are [$(echo $got)], allowlist is [$(echo $want)]" >&2
        status=1
    fi
}

pin_fields lscr.go Options \
    SkipIndex Landmarks IndexSeed ConstraintCacheSize CompactAfter DataDir Durability
pin_fields internal/lscr/localindex.go IndexParams K Seed
pin_fields lscr.go MaintStats \
    Enabled Batches LandmarksInvalidated DirtyLandmarks
pin_fields internal/lscr/maintain.go MaintBatch EntriesAdded LandmarksInvalidated

exit "$status"
