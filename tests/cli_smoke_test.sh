#!/bin/sh
# End-to-end smoke test of the mars_sim CLI: generate -> info -> run,
# both from a persisted database and from a fresh scene.
set -e
BIN_DIR="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

"$BIN_DIR/tools/mars_sim" generate --objects 10 --seed 5 --out "$TMP/city.mars"
"$BIN_DIR/tools/mars_sim" info --db "$TMP/city.mars" | grep -q "objects : 10"
"$BIN_DIR/tools/mars_sim" run --db "$TMP/city.mars" --tour tram --speed 0.5 \
    --frames 40 --client buffered | grep -q "cache hit rate"
"$BIN_DIR/tools/mars_sim" run --objects 10 --seed 5 --tour walk --speed 0.8 \
    --frames 30 --client naive | grep -q "mean response / query"
"$BIN_DIR/tools/mars_sim" run --objects 10 --seed 5 --frames 30 \
    --client streaming --kalman --index naive-point | grep -q "index I/O"
# A degraded link: loss + scheduled outages still terminate and report
# the fault metrics.
"$BIN_DIR/tools/mars_sim" run --objects 10 --seed 5 --frames 40 \
    --client buffered --loss 0.05 --outage-rate 30 --outage-secs 5 \
    | grep -q "outage frames"
# Out-of-core store: the first disk run builds the page file, the rerun
# restores the persisted index from it instead of rebuilding. The page
# file lives in $TMP so the trap cleans it up with everything else.
"$BIN_DIR/tools/mars_sim" run --db "$TMP/city.mars" --frames 30 \
    --client streaming --store disk --pages "$TMP/city.pages" \
    --evict motion | grep -q "restored shards 0/1"
test -s "$TMP/city.pages"
"$BIN_DIR/tools/mars_sim" run --db "$TMP/city.mars" --frames 30 \
    --client streaming --store disk --pages "$TMP/city.pages" \
    | grep -q "restored shards 1/1"
# Restart after rebalancing: the first run splits shards past the
# configured four, and the rerun re-attaches every slot it left (all six)
# through the manifest in slot 0's page file, with no sidecar file.
"$BIN_DIR/tools/mars_sim" run --objects 20 --zipf --seed 5 --frames 60 \
    --client buffered --shards 4 --rebalance on --rebalance-interval 4 \
    --store disk --pages "$TMP/r.pages" \
    | grep -q "shards live / total     : 6 / 6"
"$BIN_DIR/tools/mars_sim" run --objects 20 --zipf --seed 5 --frames 60 \
    --client buffered --shards 4 --rebalance on --rebalance-interval 4 \
    --store disk --pages "$TMP/r.pages" | grep -q "restored shards 6/4"
test ! -e "$TMP/r.pages.shardmap"
# --store disk without --pages fails loudly.
if "$BIN_DIR/tools/mars_sim" run --db "$TMP/city.mars" --frames 30 \
    --store disk 2>/dev/null; then exit 1; fi
# Unknown flags and missing files fail loudly.
if "$BIN_DIR/tools/mars_sim" run --loss 0.9 2>/dev/null; then exit 1; fi
if "$BIN_DIR/tools/mars_sim" run --bogus 2>/dev/null; then exit 1; fi
if "$BIN_DIR/tools/mars_sim" info --db /nonexistent 2>/dev/null; then exit 1; fi
echo "cli smoke ok"
