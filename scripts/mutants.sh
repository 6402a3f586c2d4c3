#!/usr/bin/env bash
# The committed mutant catalogue: every tests/mutants/*.patch is a small
# deliberate bug that some test must catch. For each patch this script
# checks out the tree under test into a scratch `git worktree`, applies the
# patch there, builds and then runs the test command its header names (a
# line `# test: cargo test <args>` above the diff) and records whether the
# tests failed (the mutant is killed) or passed (it survived). It lists the
# survivors and exits 1 if there are any, 2 if a patch no longer applies
# or its mutant no longer builds.
#
# The tree under test is the working tree as it stands — `git stash create`
# of tracked changes, staged new files included — or HEAD when it is clean.
# Nothing in the checkout is modified. Offline: only git and cargo run.
#
#   bash scripts/mutants.sh
#
# Builds share CARGO_TARGET_DIR (default: target/mutants under the
# checkout), so only the first mutant compiles the workspace from scratch.
# Scratch space is taken under TMPDIR.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" stash create)
rev=${rev:-HEAD}
work=$(mktemp -d "${TMPDIR:-/tmp}/mapro-mutants.XXXXXX")
tree="$work/tree"
git -C "$root" worktree add --detach --quiet "$tree" "$rev"
cleanup() {
  git -C "$root" worktree remove --force "$tree" 2>/dev/null || true
  git -C "$root" worktree prune
  rm -rf "$work"
}
trap cleanup EXIT
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target/mutants}"

patches=("$root"/tests/mutants/*.patch)

survivors=()
for patch in "${patches[@]}"; do
  name=$(basename "$patch" .patch)
  cmd=$(sed -n 's/^# test: //p' "$patch" | head -n 1)
  if [[ "$cmd" != "cargo test "* ]]; then
    echo "mutants: $name names no '# test: cargo test ...' command" >&2
    exit 2
  fi
  git -C "$tree" checkout --quiet --force "$rev"
  if ! git -C "$tree" apply "$patch"; then
    echo "mutants: $name no longer applies" >&2
    exit 2
  fi
  # A build error is not a kill: build the command's tests first, and
  # count the mutant killed only if they build and then fail.
  build="cargo test --no-run${cmd#cargo test}"
  if ! (cd "$tree" && bash -c "$build") >"$work/$name.log" 2>&1; then
    cat "$work/$name.log" >&2
    echo "mutants: $name no longer builds ($build)" >&2
    exit 2
  fi
  if (cd "$tree" && bash -c "$cmd") >"$work/$name.log" 2>&1; then
    echo "SURVIVED $name ($cmd)"
    survivors+=("$name")
  else
    echo "killed   $name: $(grep -m 1 -E 'panicked at|FAILED' "$work/$name.log" || echo 'exit status only')"
  fi
done

if [ ${#survivors[@]} -gt 0 ]; then
  echo "mutants: ${#survivors[@]} of ${#patches[@]} survived: ${survivors[*]}" >&2
  exit 1
fi
echo "mutants: all ${#patches[@]} killed"
