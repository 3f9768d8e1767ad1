#!/usr/bin/env bash
# Guard against declared-but-unused dependencies.
#
# The deadlock crate sat in the harness's Cargo.toml for several PRs with no
# `use locus_deadlock::` anywhere — dead weight in every build and a silent
# lie about the dependency graph. This check fails CI when the root package
# or any crate under crates/ declares a dependency, in [dependencies] or
# [dev-dependencies], whose identifier never appears as a path, macro or
# import in that package's sources (src/, tests/, benches/, examples/).
#
# It also fails on the two halves of a removal left behind: an entry of the
# root manifest's [workspace.dependencies] that no member declares, and a
# vendor/<name> shim that no workspace dependency points at.
#
# Comment lines do not count: a dependency named only in a doc link fails.
# It sees names, not meaning: a dependency whose only use is a derive that
# expands to nothing (the vendored serialization shim deleted in PR 17) passes
# here and has to be found by reading the shim.
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    crate_dir=$(dirname "$manifest")
    crate=$(sed -n 's/^name = "\(.*\)"/\1/p' "$manifest" | head -n 1)
    # Dependency names: `foo.workspace = true` or `foo = {...}` under the
    # two sections that declare a use ([workspace.dependencies] only names
    # where a dependency lives).
    deps=$(awk '
        /^\[/ { on = ($0 == "[dependencies]" || $0 == "[dev-dependencies]") }
        on && match($0, /^[A-Za-z0-9_-]+/) { print substr($0, 1, RLENGTH) }
    ' "$manifest" | sort -u)
    dirs=()
    for d in src tests benches examples; do
        [ -d "$crate_dir/$d" ] && dirs+=("$crate_dir/$d")
    done
    for dep in $deps; do
        ident=${dep//-/_}
        # A mention on a comment line (a doc link, say) is not a use. The
        # matches are collected whole: a `-q` reader that stops early would
        # fail the pipeline with the writer's SIGPIPE.
        uses=$(grep -rhE "\b${ident}(::|!)|\buse\s+${ident}\s*(;|as\b)" "${dirs[@]}" |
            grep -vE '^\s*//' || true)
        if [ -z "$uses" ]; then
            echo "UNUSED: $crate declares $dep but never references $ident" >&2
            fail=1
        fi
    done
done

# `name.workspace = true` or `name = { workspace = true, ... }` in a member.
members=(Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml)
workspace_deps=$(awk '
    /^\[/ { on = ($0 == "[workspace.dependencies]") }
    on && match($0, /^[A-Za-z0-9_-]+/) { print substr($0, 1, RLENGTH) }
' Cargo.toml)
for dep in $workspace_deps; do
    if ! grep -qE "^${dep}(\.workspace *= *true| *= *\{.*workspace *= *true)" "${members[@]}"; then
        echo "UNUSED: [workspace.dependencies] names $dep but no member declares it" >&2
        fail=1
    fi
done
for shim in vendor/*/; do
    shim=${shim%/}
    if ! grep -qE "path *= *\"${shim}/?\"" Cargo.toml; then
        echo "UNUSED: $shim is vendored but no workspace dependency names it" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "error: unused dependencies (remove them or use them)" >&2
    exit 1
fi
echo "check_unused_deps: every declared dependency is referenced"
