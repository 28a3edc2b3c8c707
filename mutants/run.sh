#!/usr/bin/env bash
# Scores the committed mutation set: every mutants/*.patch breaks the code
# on purpose, and the test its header names must catch the break.
#
#   bash mutants/run.sh
#
# A patch starts with three header lines, then a unified diff against the
# tree (`git apply` skips the header):
#
#   # breaks: what the patch breaks
#   # run: the command that must fail with the patch applied
#   # expect: text the failing command must print
#
# The runner copies the checkout's tracked files to target/mutants/tree and
# builds there with a target directory of its own (target/mutants/target),
# never the checkout's target/. Every distinct command must first pass on
# the unpatched copy. Then each patch, in name order, is
#
#   stale   when it no longer applies, or its command does not compile;
#   caught  when its command exits non-zero and prints `expect`;
#   missed  otherwise, a failure without `expect` included.
#
# Each patch is restored with `git apply -R`, which gives every restored
# file a newer mtime, so Cargo rebuilds it (a file restored with its old
# mtime would leave the mutant's build looking fresh). The commands pass
# once more on the unpatched copy after the last patch. Prints a markdown
# table and the score per crate; exits non-zero if either unpatched pass
# fails or any patch is missed or stale.
set -uo pipefail

if [ $# -ne 0 ]; then
    echo "usage: bash mutants/run.sh (takes no arguments)" >&2
    exit 2
fi

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel) || exit 2
work="$root/target/mutants"
tree="$work/tree"
logs="$work/logs"
export CARGO_TARGET_DIR="$work/target"
# The commands run at their committed budgets, whatever the caller's shell
# sets for the fuzzer.
unset SYMBAD_FUZZ_ITERS SYMBAD_FUZZ_REPRO

rm -rf "$work"
mkdir -p "$tree" "$logs"
git -C "$root" ls-files -z | (cd "$root" && tar --null -T - -cf -) | tar -xf - -C "$tree" || exit 2
# A repository of its own, so `git apply` patches paths from the copy's root.
git -C "$tree" init -q || exit 2

header() { sed -n "s/^# $1: //p" "$2" | head -n 1; }

# Runs one command in the copy; its output goes to the log named $2.
run_in_tree() {
    (cd "$tree" && bash -c "$1") >"$logs/$2.log" 2>&1
}

honest_pass() {
    local i=0 cmd
    while IFS= read -r cmd; do
        i=$((i + 1))
        echo "$1 unpatched run: $cmd" >&2
        if ! run_in_tree "$cmd" "unpatched-$1-$i"; then
            echo "the unpatched tree fails \`$cmd\`:" >&2
            tail -n 40 "$logs/unpatched-$1-$i.log" >&2
            exit 1
        fi
    done < <(for p in "$root"/mutants/*.patch; do header run "$p"; done | awk '!seen[$0]++')
}

started=$SECONDS
honest_pass first

rows=()
declare -A total caught
failed=0
for patch in "$root"/mutants/*.patch; do
    name=$(basename "$patch" .patch)
    cmd=$(header run "$patch")
    expect=$(header expect "$patch")
    crate=$(sed -n 's|^+++ b/crates/\([^/]*\)/.*|\1|p' "$patch" | head -n 1)
    echo "$name: $cmd" >&2
    if ! git -C "$tree" apply --check "$patch" 2>"$logs/$name.log"; then
        outcome=stale
    else
        git -C "$tree" apply "$patch" || exit 2
        if run_in_tree "$cmd" "$name"; then
            outcome=missed
        elif grep -q "error: could not compile" "$logs/$name.log"; then
            outcome=stale
        elif grep -qF -- "$expect" "$logs/$name.log"; then
            outcome=caught
        else
            outcome=missed
        fi
        git -C "$tree" apply -R "$patch" || exit 2
    fi
    echo "  $outcome (log: $logs/$name.log)" >&2
    rows+=("| \`$name\` | $crate | $(header breaks "$patch") | $outcome |")
    total[$crate]=$((${total[$crate]:-0} + 1))
    if [ "$outcome" = caught ]; then
        caught[$crate]=$((${caught[$crate]:-0} + 1))
    else
        failed=$((failed + 1))
    fi
done

honest_pass second

echo "| patch | crate | breaks | outcome |"
echo "|---|---|---|---|"
printf '%s\n' "${rows[@]}"
echo
echo "| crate | caught / total |"
echo "|---|---|"
for crate in $(printf '%s\n' "${!total[@]}" | sort); do
    echo "| $crate | ${caught[$crate]:-0} / ${total[$crate]} |"
done
echo
echo "${#rows[@]} patches, $failed missed or stale, $((SECONDS - started)) s"
[ "$failed" -eq 0 ]
