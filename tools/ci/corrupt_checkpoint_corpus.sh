#!/usr/bin/env bash
# Corrupt-checkpoint corpus: damage real snapshots in every way a
# crash or disk fault plausibly would (truncations at many offsets,
# single-byte flips, garbage, a kind swap) and prove seamap_cli
# rejects each one gracefully — exit code 0 (fallback recovered) or 2
# (structured rejection), never a crash, never a sanitizer abort.
# Both snapshot kinds are covered: the exploration snapshot of
# `optimize --checkpoint FILE` and the campaign snapshot FILE.sim of
# `campaign --checkpoint FILE`.
#
# Usage: corrupt_checkpoint_corpus.sh <path-to-seamap_cli>
set -u

cli=${1:?usage: corrupt_checkpoint_corpus.sh <path-to-seamap_cli>}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

graph="$work/fig8.tg"
ckpt="$work/snap.ckpt"
stem="$work/campaign"
optimize_args=(optimize "$graph" --cores 2 --checkpoint "$ckpt")
campaign_args=(campaign "$graph" --cores 2 --trials 2000 --shard-size 128
               --checkpoint "$stem")

"$cli" generate fig8 -o "$graph" || exit 1
"$cli" "${optimize_args[@]}" > /dev/null || exit 1
"$cli" "${campaign_args[@]}" > /dev/null || exit 1

failures=0
cases=0

# One corpus entry: a damaged snapshot `target` with no .prev fallback,
# resumed by `seamap_cli <args> --resume --json`. The run must exit 0
# or 2; on 2 the --json surface must carry the structured error object.
check_case() {
    local label=$1 target=$2
    shift 2
    rm -f "$target.prev" "$target.tmp"
    cases=$((cases + 1))
    local out rc
    out=$("$cli" "$@" --resume --json 2> "$work/stderr.txt")
    rc=$?
    if [ "$rc" -ne 0 ] && [ "$rc" -ne 2 ]; then
        echo "FAIL [$label]: exit code $rc (expected 0 or 2)"
        cat "$work/stderr.txt"
        failures=$((failures + 1))
        return
    fi
    if [ "$rc" -eq 2 ] && ! printf '%s' "$out" | grep -q '"error"'; then
        echo "FAIL [$label]: exit 2 without a structured {\"error\"} object"
        failures=$((failures + 1))
        return
    fi
    echo "ok   [$label]: exit $rc"
}

# Feed every damaged variant of snapshot `target` (kind `kind`, swapped
# to `other_kind` for the kind-swap case) to `seamap_cli <args>`.
damage_corpus() {
    local tag=$1 target=$2 kind=$3 other_kind=$4
    shift 4
    local pristine="$work/pristine.$tag"
    cp "$target" "$pristine"
    local size
    size=$(wc -c < "$pristine")

    # Truncations: a torn write can stop anywhere.
    for keep in 0 1 7 16 $((size / 4)) $((size / 2)) $((size - 1)); do
        head -c "$keep" "$pristine" > "$target"
        check_case "$tag truncate-to-$keep" "$target" "$@"
    done

    # Single-byte flips spread across the file: envelope, payload, checksum.
    for offset in 0 5 $((size / 3)) $((size / 2)) $((size - 2)); do
        cp "$pristine" "$target"
        printf 'Z' | dd of="$target" bs=1 seek="$offset" conv=notrunc status=none
        check_case "$tag flip-byte-$offset" "$target" "$@"
    done

    # Wholesale garbage, empty file, and binary noise.
    printf 'this is not a checkpoint\n' > "$target"
    check_case "$tag garbage-text" "$target" "$@"
    : > "$target"
    check_case "$tag empty-file" "$target" "$@"
    head -c 256 /dev/urandom > "$target"
    check_case "$tag binary-noise" "$target" "$@"

    # Right envelope, wrong kind.
    sed "s/^kind $kind\$/kind $other_kind/" "$pristine" > "$target"
    check_case "$tag kind-swap" "$target" "$@"

    # Sanity: the pristine snapshot must still resume cleanly (exit 0).
    cp "$pristine" "$target"
    rm -f "$target.prev" "$target.tmp"
    if ! "$cli" "$@" --resume > /dev/null; then
        echo "FAIL [$tag pristine]: the undamaged snapshot no longer resumes"
        failures=$((failures + 1))
    fi
    cases=$((cases + 1))
}

damage_corpus dse "$ckpt" dse campaign "${optimize_args[@]}"
damage_corpus sim "$stem.sim" campaign dse "${campaign_args[@]}"

echo "corrupt-checkpoint corpus: $((cases - failures))/$cases cases passed"
[ "$failures" -eq 0 ]
