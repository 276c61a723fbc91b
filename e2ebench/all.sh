#!/usr/bin/env bash
# Runs every workload in turn, one process each, with the same flags.
# Run from the repository root:
#
#   bash e2ebench/all.sh --seed 1 --seconds 12 --trace 0
#
# Exits non-zero if any workload fails a check or does not finish.
set -uo pipefail

status=0
for w in learn-uw shard-sys serve-imdb live-uw; do
	echo "== $w"
	bash "$(dirname "$0")/run.sh" --workload "$w" "$@" || status=1
done
exit "$status"
