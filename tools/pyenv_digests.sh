#!/bin/sh
# Seed-0 digest and import-footprint check under every pyenv Python >= 3.10.
#
#     tools/pyenv_digests.sh
#
# For each interpreter under $PYENV_ROOT/versions (default ~/.pyenv/versions)
# that is 3.10 or newer, runs
#
#     python perfbench/run.py --workload all --seed 0 --seconds 1
#
# from the repository root, one version at a time (the runs share
# perfbench/work/).  That run trains and generates every workload and checks
# each artifact against the digests in perfbench/reference.json, so a
# version passes only when its outputs are byte-identical to the recorded
# ones.  The reference digests cover no .tables file, so after each run the
# sha256 of the six .tables files it trained is printed, and the versions'
# digests are compared with each other.  Each version also runs
# tools/no_openssl.py, which trains and generates on the desk corpus in
# process and fails when hashlib or _hashlib (OpenSSL) was imported.  Prints
# one line per version, naming the scoring backend that version imports
# (templex.kernels.DEFAULT_BACKEND, so whether the digests come from the
# native or the Python kernel), then its footprint line and its .tables digests;
# each run's full output is kept in a fresh temporary directory, named at the
# end.  Exits 1 when a version fails either check, cannot import
# templex.kernels or its .tables digests differ from the first version's,
# and 2 when no such interpreter is found.

set -u
root=$(cd "$(dirname "$0")/.." && pwd)
versions=${PYENV_ROOT:-$HOME/.pyenv}/versions
cd "$root" || exit 2
logs=$(mktemp -d) || exit 2

found=0
status=0
first=
for dir in "$versions"/*; do
    py=$dir/bin/python3
    [ -x "$py" ] || continue
    "$py" -c 'import sys; sys.exit(sys.version_info < (3, 10))' 2>/dev/null || continue
    found=1
    version=$(basename "$dir")
    log=$logs/$version.log
    # so that a run that trains nothing leaves no older run's tables
    rm -f perfbench/work/*/out/*.tables
    if "$py" perfbench/run.py --workload all --seed 0 --seconds 1 >"$log" 2>&1; then
        result=pass
    else
        result=FAIL
        status=1
    fi
    # the last line of a run is a JSON object with its op counts
    summary=$(tail -n 1 "$log" | "$py" -c '
import json, sys
try:
    d = json.loads(sys.stdin.read())
    print("%d of %d ops pass" % (d["attempted"] - d["failed"], d["attempted"]))
except (ValueError, KeyError):
    print("no result line")
')
    # a templex.kernels that does not import fails the version, as its run does
    if ! backend=$("$py" -c '
import sys
sys.path.insert(0, "src")
import templex.kernels
print(templex.kernels.DEFAULT_BACKEND)
' 2>>"$log"); then
        backend="none (templex.kernels does not import)"
        status=1
    fi
    echo "$version: $result ($summary) on backend $backend"
    if ! "$py" tools/no_openssl.py >"$logs/$version.footprint" 2>&1; then
        status=1
    fi
    sed 's/^/  /' "$logs/$version.footprint"
    tables=$logs/$version.tables
    "$py" -c '
import hashlib, pathlib
for path in sorted(pathlib.Path("perfbench/work").glob("*/out/*.tables")):
    print("  %s  %s" % (hashlib.sha256(path.read_bytes()).hexdigest(), path))
' >"$tables"
    cat "$tables"
    if [ -z "$first" ]; then
        first=$tables
    elif ! cmp -s "$first" "$tables"; then
        echo "$version: .tables digests differ from $(basename "$first" .tables)"
        status=1
    fi
done

if [ "$found" = 0 ]; then
    echo "no pyenv Python >= 3.10 under $versions" >&2
    exit 2
fi
echo "logs in $logs"
exit "$status"
