#!/usr/bin/env bash
# usage: ci/pinned.sh JOB LOG...
#
# Every test that ci/pinned.txt pins to JOB must have passed exactly once
# across the job's test logs: once, so a rename or a filter that drops it
# fails here by name, and a second run of it under the same conditions too.
# The logs are libtest's output without `-q`, which prints dots, not names.
set -euo pipefail
job=$1
shift
pinned=0 bad=0
while read -r pin_job test; do
  [[ $pin_job == "$job" ]] || continue
  pinned=$((pinned + 1))
  runs=$(cat "$@" | grep -cxF "test $test ... ok" || true)
  if [[ $runs != 1 ]]; then
    echo "pinned test $test passed $runs times in job $job, not once"
    bad=$((bad + 1))
  fi
done < <(grep -v '^#' "$(dirname "$0")/pinned.txt")
echo "job $job: $((pinned - bad)) of $pinned pinned tests passed once"
[[ $pinned -gt 0 && $bad == 0 ]]
